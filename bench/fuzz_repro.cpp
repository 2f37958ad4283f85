// fuzz_repro — replay / sweep / shrink CLI for the fuzz subsystem.
//
//   fuzz_repro --seed N [--dump FILE]        generate seed N, run the full
//                                            oracle, optionally dump the spec
//   fuzz_repro --spec FILE                   replay a committed spec file
//   fuzz_repro --shrink FILE --out FILE      minimize a failing spec
//   fuzz_repro --sweep N [--artifact-dir D]  oracle on seeds 1..N; failing
//                                            specs (plus shrunk repros) are
//                                            written to D; exit 1 on any
//                                            failure
//
// Any mode also takes --faults SPEC (same grammar as ABCLSIM_FAULTS, e.g.
// "drop=0.05,dup=0.01,seed=7"): the parsed FaultConfig is overlaid on every
// spec before it runs, so the whole corpus can be swept under a fault plan
// without regenerating repro files. "--faults off" strips the block instead.
// --migration SPEC (grammar of ABCLSIM_MIGRATION, e.g.
// "interval=32,min_queue=4,seed=9") overlays a live-migration block the same
// way; "--migration off" strips it. The two overlays compose, so
// `--sweep N --faults ... --migration ...` is the migration×faults regime.
//
// --ckpt switches every mode from the differential oracle (check_spec) to
// the snapshot-equivalence oracle (check_spec_checkpoint): each spec is run
// uninterrupted, then checkpointed mid-run, destroyed, restored (including
// cross-driver) and crash-recovered, and every variant must be
// byte-identical to the baseline. CI's checkpoint-matrix job runs
// `--sweep N --ckpt` plain and under the faults+migration overlays.
//
// Exit status: 0 = all checks passed, 1 = oracle failure, 2 = usage/I/O
// error. CI runs `--sweep` as the extended fuzz job; developers replay
// artifacts with `--spec`.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "fuzz/oracle.hpp"
#include "fuzz/program_gen.hpp"
#include "fuzz/shrinker.hpp"
#include "fuzz/spec.hpp"
#include "net/fault.hpp"
#include "obs/json.hpp"
#include "remote/migration.hpp"

namespace {

using namespace abcl;

int usage() {
  std::fprintf(stderr,
               "usage: fuzz_repro --seed N [--dump FILE]\n"
               "       fuzz_repro --spec FILE\n"
               "       fuzz_repro --shrink FILE --out FILE\n"
               "       fuzz_repro --sweep N [--artifact-dir D]\n"
               "       (any mode) --faults SPEC --migration SPEC --ckpt\n");
  return 2;
}

// Set by --faults; nullopt = leave each spec's own faults block alone.
std::optional<net::FaultConfig> g_faults;

void overlay_faults(fuzz::Spec& s) {
  if (!g_faults.has_value()) return;
  if (g_faults->enabled) {
    s.faults = *g_faults;
  } else {
    s.faults.reset();  // "--faults off" replays a fault repro fault-free
  }
}

// Set by --migration; nullopt = leave each spec's own migration block alone.
std::optional<remote::MigrationConfig> g_migration;

void overlay_migration(fuzz::Spec& s) {
  if (!g_migration.has_value()) return;
  if (g_migration->enabled) {
    s.migration = *g_migration;
  } else {
    s.migration.reset();  // "--migration off" replays migration-free
  }
}

void overlay(fuzz::Spec& s) {
  overlay_faults(s);
  overlay_migration(s);
}

// Set by --ckpt: run the snapshot-equivalence oracle instead of the plain
// differential one.
bool g_ckpt = false;

fuzz::OracleResult run_oracle(const fuzz::Spec& s) {
  return g_ckpt ? fuzz::check_spec_checkpoint(s) : fuzz::check_spec(s);
}

bool oracle_fails(const fuzz::Spec& s) { return !run_oracle(s).ok; }

int check_and_report(const fuzz::Spec& spec, const std::string& label) {
  fuzz::OracleResult r = run_oracle(spec);
  if (r.ok) {
    std::printf("%s: OK (%zu actions, %u steps, sim_time %llu)\n",
                label.c_str(), spec.total_actions(),
                static_cast<unsigned>(r.serial.total.steps_run),
                static_cast<unsigned long long>(r.serial.sim_time));
    return 0;
  }
  std::printf("%s: FAIL — %s\n", label.c_str(), r.failure.c_str());
  return 1;
}

std::optional<fuzz::Spec> load(const std::string& path) {
  std::optional<std::string> text = obs::read_file(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::string err;
  std::optional<fuzz::Spec> spec = fuzz::Spec::from_json(*text, &err);
  if (!spec.has_value()) {
    std::fprintf(stderr, "cannot parse %s: %s\n", path.c_str(), err.c_str());
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, arg, dump, out, artifact_dir;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--seed" || a == "--spec" || a == "--shrink" || a == "--sweep") {
      const char* v = next();
      if (v == nullptr || !mode.empty()) return usage();
      mode = a;
      arg = v;
    } else if (a == "--dump") {
      const char* v = next();
      if (v == nullptr) return usage();
      dump = v;
    } else if (a == "--out") {
      const char* v = next();
      if (v == nullptr) return usage();
      out = v;
    } else if (a == "--artifact-dir") {
      const char* v = next();
      if (v == nullptr) return usage();
      artifact_dir = v;
    } else if (a == "--faults") {
      const char* v = next();
      if (v == nullptr) return usage();
      std::string err;
      g_faults = net::parse_fault_spec(v, &err);
      if (!g_faults.has_value()) {
        std::fprintf(stderr, "--faults: %s\n", err.c_str());
        return 2;
      }
    } else if (a == "--migration") {
      const char* v = next();
      if (v == nullptr) return usage();
      std::string err;
      g_migration = remote::parse_migration_spec(v, &err);
      if (!g_migration.has_value()) {
        std::fprintf(stderr, "--migration: %s\n", err.c_str());
        return 2;
      }
    } else if (a == "--ckpt") {
      g_ckpt = true;
    } else {
      return usage();
    }
  }
  if (mode.empty()) return usage();

  if (mode == "--seed") {
    fuzz::Spec spec = fuzz::generate(std::strtoull(arg.c_str(), nullptr, 0));
    overlay(spec);
    if (!dump.empty() && !obs::write_file(dump, spec.to_json())) {
      std::fprintf(stderr, "cannot write %s\n", dump.c_str());
      return 2;
    }
    return check_and_report(spec, "seed " + arg);
  }

  if (mode == "--spec") {
    std::optional<fuzz::Spec> spec = load(arg);
    if (!spec.has_value()) return 2;
    overlay(*spec);
    return check_and_report(*spec, arg);
  }

  if (mode == "--shrink") {
    if (out.empty()) return usage();
    std::optional<fuzz::Spec> spec = load(arg);
    if (!spec.has_value()) return 2;
    overlay(*spec);
    if (!oracle_fails(*spec)) {
      std::fprintf(stderr, "%s passes the oracle; nothing to shrink\n",
                   arg.c_str());
      return 2;
    }
    fuzz::ShrinkStats st;
    fuzz::Spec small = fuzz::shrink(*spec, oracle_fails, &st);
    if (!obs::write_file(out, small.to_json())) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 2;
    }
    std::printf("shrunk %zu -> %zu actions (%d rounds, %zu attempts) -> %s\n",
                spec->total_actions(), small.total_actions(), st.rounds,
                st.attempts, out.c_str());
    return 1;  // the spec still fails, by construction
  }

  // --sweep
  const std::uint64_t n = std::strtoull(arg.c_str(), nullptr, 0);
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    fuzz::Spec spec = fuzz::generate(seed);
    overlay(spec);
    fuzz::OracleResult r = run_oracle(spec);
    if (r.ok) continue;
    ++failures;
    std::printf("seed %llu: FAIL — %s\n",
                static_cast<unsigned long long>(seed), r.failure.c_str());
    if (!artifact_dir.empty()) {
      const std::string base =
          artifact_dir + "/repro_seed_" + std::to_string(seed);
      obs::write_file(base + ".json", spec.to_json());
      fuzz::Spec small = fuzz::shrink(spec, oracle_fails, nullptr, 500);
      obs::write_file(base + "_min.json", small.to_json());
      obs::write_file(base + ".txt", r.failure);
    }
  }
  std::printf("sweep 1..%llu: %d failure(s)\n",
              static_cast<unsigned long long>(n), failures);
  return failures == 0 ? 0 : 1;
}
