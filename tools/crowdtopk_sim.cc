// crowdtopk_sim: deterministic simulation harness driver (docs/SIMULATION.md).
//
// Sweeps N seeded chaos episodes through the full serving stack — each
// episode replays one trace cold/wide/cached/uncached/persisted/crashed/
// resumed/warm, fuzzes the wire codec, and checks every cross-layer
// invariant. On a violation the failing episode is shrunk to a minimal
// still-failing spec and a copy-pasteable replay command is printed.
//
//   crowdtopk_sim --seeds 64              # CI sweep (exit 1 on violation)
//   crowdtopk_sim --seed 12345            # one derived episode
//   crowdtopk_sim --episode 'seed=...'    # replay a printed spec verbatim
//   crowdtopk_sim --seeds 8 --mutate seed-drift   # must fail (harness test)
//
// Exit codes: 0 all invariants hold, 1 violations found, 2 usage error.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "sim/chaos.h"
#include "sim/harness.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/random.h"

namespace {

using namespace crowdtopk;

constexpr char kHelp[] = R"(crowdtopk_sim [options]

Deterministic simulation harness: seeded chaos episodes over the full
serving stack with cross-layer invariant checking, seed shrinking, and
replay (docs/SIMULATION.md).

  --seeds N          sweep N >= 1 episodes (episode i = DeriveEpisode(
                     SplitSeed(master, i)))               (default 16)
  --master S         master seed of the sweep     (default 20170514)
  --seed X           run the single episode derived from seed X
                     (N, S and X are unsigned decimal integers)
  --episode SPEC     replay a key=value episode spec verbatim (the
                     format failure reports print)
  --mutate NAME      inject a deliberate determinism bug into every
                     episode: seed-drift | cache-leak | wire-flip —
                     the harness MUST catch it (acceptance test)
  --no-shrink        print the raw failing episode without minimising
  --scratch DIR      scratch directory for persist chaos, kept after
                     the run (default: a fresh private directory
                     $TMPDIR/crowdtopk_sim.XXXXXX, or under /tmp,
                     removed when the run ends)

Exit codes: 0 clean, 1 invariant violation, 2 usage error.
)";

constexpr uint64_t kMaxUnsigned = std::numeric_limits<uint64_t>::max();

// Parses all of `text` as a decimal unsigned integer: no sign, no spaces,
// no trailing characters, no overflow.
bool ParseUnsigned(const char* text, uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0' && errno != ERANGE;
}

// Removes the private default scratch directory when the run ends.
struct ScratchCleanup {
  std::string dir;  // empty: --scratch named a directory the caller keeps

  ScratchCleanup() = default;
  ScratchCleanup(const ScratchCleanup&) = delete;
  ScratchCleanup& operator=(const ScratchCleanup&) = delete;
  ~ScratchCleanup() {
    std::error_code ignored;
    if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
  }
};

void ApplyMutation(sim::Episode* episode, const std::string& mutation) {
  episode->mutation = mutation;
  if (mutation == "cache-leak") {
    // The capacity-0 ablation only runs for cached episodes.
    episode->cache_enabled = true;
  } else if (mutation == "wire-flip") {
    if (episode->wire_trials < 1) episode->wire_trials = 1;
  }
}

void PrintViolations(const std::vector<sim::Violation>& violations) {
  for (const sim::Violation& v : violations) {
    std::printf("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
  }
}

// Shrinks (unless told not to), prints the minimal spec + replay line, and
// returns the process exit code contribution.
void ReportFailure(const sim::Episode& episode,
                   const std::vector<sim::Violation>& violations,
                   bool shrink, const std::string& scratch) {
  std::printf("episode seed=%llu FAILED (%zu violations):\n",
              static_cast<unsigned long long>(episode.seed),
              violations.size());
  PrintViolations(violations);
  sim::Episode minimal = episode;
  std::vector<sim::Violation> minimal_violations = violations;
  if (shrink) {
    std::printf("shrinking...\n");
    minimal = sim::ShrinkEpisode(episode, scratch, &minimal_violations);
    std::printf("minimal episode (%zu violations):\n",
                minimal_violations.size());
    PrintViolations(minimal_violations);
  }
  std::printf("spec:   %s\n", sim::ToSpec(minimal).c_str());
  std::printf("replay: %s\n", sim::ReplayCommand(minimal).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int64_t seeds = 16;
  uint64_t master = 20170514;
  bool have_single_seed = false;
  uint64_t single_seed = 0;
  std::string episode_spec;
  std::string mutation;
  bool shrink = true;
  std::string scratch;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value (try --help)\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_number = [&](const char* flag, uint64_t min, uint64_t max,
                           const char* what) {
      const char* text = next(flag);
      uint64_t value = 0;
      if (!ParseUnsigned(text, &value) || value < min || value > max) {
        std::fprintf(stderr, "%s must be %s, got '%s' (try --help)\n", flag,
                     what, text);
        std::exit(2);
      }
      return value;
    };
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kHelp);
      return 0;
    } else if (arg == "--seeds") {
      seeds = static_cast<int64_t>(
          next_number("--seeds", 1, std::numeric_limits<int64_t>::max(),
                      "an integer >= 1"));
    } else if (arg == "--master") {
      master = next_number("--master", 0, kMaxUnsigned, "an unsigned integer");
    } else if (arg == "--seed") {
      have_single_seed = true;
      single_seed =
          next_number("--seed", 0, kMaxUnsigned, "an unsigned integer");
    } else if (arg == "--episode") {
      episode_spec = next("--episode");
    } else if (arg == "--mutate") {
      mutation = next("--mutate");
      if (mutation != "seed-drift" && mutation != "cache-leak" &&
          mutation != "wire-flip") {
        std::fprintf(stderr, "unknown --mutate %s (try --help)\n",
                     mutation.c_str());
        return 2;
      }
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--scratch") {
      scratch = next("--scratch");
    } else {
      std::fprintf(stderr, "unknown argument %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  // By default every run gets its own directory, so concurrent runs never
  // empty each other's episode directories.
  ScratchCleanup cleanup;
  if (scratch.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string private_dir =
        std::string(tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp") +
        "/crowdtopk_sim.XXXXXX";
    if (mkdtemp(private_dir.data()) == nullptr) {
      std::fprintf(stderr, "cannot create scratch directory %s: %s\n",
                   private_dir.c_str(), std::strerror(errno));
      return 2;
    }
    scratch = cleanup.dir = private_dir;
  } else if (!util::EnsureDirectory(scratch).ok()) {
    std::fprintf(stderr, "cannot create scratch directory %s\n",
                 scratch.c_str());
    return 2;
  }

  // Single-episode modes: --episode replays a spec verbatim; --seed derives.
  if (!episode_spec.empty() || have_single_seed) {
    sim::Episode episode;
    if (!episode_spec.empty()) {
      util::StatusOr<sim::Episode> parsed = sim::EpisodeFromSpec(episode_spec);
      if (!parsed.ok()) {
        std::fprintf(stderr, "--episode: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      episode = parsed.value();
    } else {
      episode = sim::DeriveEpisode(single_seed);
    }
    if (!mutation.empty()) ApplyMutation(&episode, mutation);
    std::printf("episode: %s\n", sim::ToSpec(episode).c_str());
    const std::vector<sim::Violation> violations =
        sim::RunEpisode(episode, scratch + "/single");
    if (violations.empty()) {
      std::printf("all invariants hold\n");
      return 0;
    }
    ReportFailure(episode, violations, shrink, scratch);
    return 1;
  }

  // Sweep mode.
  std::printf("crowdtopk_sim: sweeping %lld episodes, master seed %llu%s\n",
              static_cast<long long>(seeds),
              static_cast<unsigned long long>(master),
              mutation.empty() ? "" : (", mutation " + mutation).c_str());
  int64_t failures = 0;
  for (int64_t i = 0; i < seeds; ++i) {
    sim::Episode episode =
        sim::DeriveEpisode(util::SplitSeed(master, static_cast<uint64_t>(i)));
    if (!mutation.empty()) ApplyMutation(&episode, mutation);
    const std::vector<sim::Violation> violations =
        sim::RunEpisode(episode, scratch + "/ep" + std::to_string(i));
    if (violations.empty()) {
      std::printf("episode %lld/%lld seed=%llu ok\n",
                  static_cast<long long>(i + 1),
                  static_cast<long long>(seeds),
                  static_cast<unsigned long long>(episode.seed));
      continue;
    }
    ++failures;
    std::printf("episode %lld/%lld ", static_cast<long long>(i + 1),
                static_cast<long long>(seeds));
    ReportFailure(episode, violations, shrink, scratch);
  }
  if (failures == 0) {
    std::printf("sweep clean: %lld episodes, zero invariant violations\n",
                static_cast<long long>(seeds));
    return 0;
  }
  std::printf("sweep found %lld failing episodes\n",
              static_cast<long long>(failures));
  return 1;
}
