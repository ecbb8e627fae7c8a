// Synthetic generators standing in for the paper's evaluation datasets.
//
// The real IMDb / Book-Crossing / Jester / Photo / PeopleAge data is not
// redistributable; these generators build statistically analogous datasets
// (see DESIGN.md, "Substitutions") with fixed sizes matching Table 5:
//
//   IMDb-like   1225 items, 10-bin vote histograms, weighted-rank ground
//               truth (K = 25000, C = 6.9)
//   Book-like    537 items, 10-bin histograms with few votes (>= 50)
//   Jester-like  100 items, dense simulated user x joke rating matrix
//   Photo-like   200 items, pre-materialised 8-point-Likert record database
//                with >= 10 records per pair
//   PeopleAge    100 items, latent score = youth, Gaussian age-guessing noise
//
// All generators are deterministic in `seed`.

#ifndef CROWDTOPK_DATA_GENERATORS_H_
#define CROWDTOPK_DATA_GENERATORS_H_

#include <cstdint>
#include <memory>

#include "data/gaussian_dataset.h"
#include "data/histogram_dataset.h"
#include "data/pair_record_dataset.h"
#include "data/user_matrix_dataset.h"

namespace crowdtopk::data {

std::unique_ptr<HistogramDataset> MakeImdbLike(uint64_t seed);
std::unique_ptr<HistogramDataset> MakeBookLike(uint64_t seed);
std::unique_ptr<UserMatrixDataset> MakeJesterLike(uint64_t seed);
std::unique_ptr<PairRecordDataset> MakePhotoLike(uint64_t seed);
std::unique_ptr<GaussianDataset> MakePeopleAgeLike(uint64_t seed);

// Test helper: n items with true scores {0, gap, 2*gap, ...} (item id i has
// score i * gap, so the top-k set is the k highest ids) and Gaussian
// preference noise of the given stddev on the score scale.
std::unique_ptr<GaussianDataset> MakeUniformLadder(int64_t n, double gap,
                                                   double noise_stddev);

// Builds the dataset named by `name` ("imdb", "book", "jester", "photo",
// "peopleage"); nullptr for any other name.
std::unique_ptr<Dataset> MakeByName(const std::string& name, uint64_t seed);

}  // namespace crowdtopk::data

#endif  // CROWDTOPK_DATA_GENERATORS_H_
