// a3cs-lint rule engine: enforces the repo's determinism, serialization,
// concurrency and hygiene invariants over lexed token streams (see lexer.h).
// Rules are path-scoped — the same source text can be clean under one
// virtual path and a violation under another — which is also how the test
// suite exercises scoping without touching real tree paths.
//
// Rule ids (stable; used by inline suppressions and the baseline file):
//   arch-intrinsics-scoped  SIMD intrinsics (<immintrin.h>, _mm*/__m*)
//                           outside src/tensor/backend/
//   arch-layering           src/ include violating the declared layer DAG
//                           (tools/a3cs_lint/layers.txt) or a module cycle
//                           [cross-TU, graph phase]
//   conc-lock-order         mutex pair acquired in conflicting orders across
//                           TUs, or a lock held across fork() in src/fleet/
//                           [cross-TU, graph phase]
//   ser-field-coverage      data member of a save_state/load_state class
//                           missing from either body [cross-TU, graph phase]
//   det-rand                rand()/srand()/std::random_device outside src/util/
//   det-time-seed           RNG seeds derived from wall clocks/counters
//   det-wall-clock          any clock in numeric code (tensor/nn/nas/rl/das/
//                           accel/arcade) — timing belongs in obs/ or bench
//   det-bench-clock         wall clock (system_clock/gettimeofday/...) in
//                           bench/ — sample via BenchSuite::now_ns instead
//   det-unordered-iter      range-for over unordered containers in
//                           save_state/load_state bodies or src/obs/ emission
//   ser-pair                class declares save_state xor load_state
//   ser-raw-io              fwrite/fread/memcpy in src/ckpt/ or src/util/
//                           outside the explicit-LE sio helpers
//   ser-layout-fingerprint  section_file.h layout changed without a
//                           kCkptFormatVersion bump (checked-in fingerprint)
//   conc-raw-thread         std::thread/std::async/detach/pthread_create
//                           outside util/thread_pool
//   conc-static-local       mutable function-local static in src/ without
//                           atomic/mutex protection nearby
//   conc-mutable-global     mutable namespace-scope variable in src/ without
//                           atomic/mutex type
//   hyg-pragma-once         header does not start with #pragma once
//   hyg-using-namespace     using-namespace directive in a header
//   inp-raw-parse           ato*/strto*/std::sto* outside src/util/ and
//                           tests/ — text from outside the program goes
//                           through util/config.h's strict parse
//
// Suppression: `// A3CS_LINT(rule-id)` on (or alone on the line above) the
// offending line, or a `path rule-id` line in tools/a3cs_lint/baseline.txt.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace a3cs_lint {

struct FileModel;

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

// Runs every path-applicable per-file rule over `source` as if it lived at
// the repo-relative `path` (forward slashes). Inline A3CS_LINT suppressions
// are already applied; baseline filtering is the driver's job. The cross-TU
// families (arch-layering, conc-lock-order, ser-field-coverage) need the
// whole tree and run in the graph phase — see graph.h.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source);

// Same, over an already-built model (the parallel driver path: models are
// built on pool workers, rules consume them without re-lexing).
std::vector<Finding> lint_file_model(const FileModel& model);

// {rule-id, one-line description} for every rule, sorted by id.
std::vector<std::pair<std::string, std::string>> rule_catalog();

// --- A3CK layout fingerprint (rule ser-layout-fingerprint) -----------------
//
// The fingerprint is an FNV-1a-64 hash of section_file.h's token stream
// (comments and whitespace excluded, string/char literal bodies included),
// so doc edits never trip it but any layout-relevant code change does. The
// recorded fingerprint + format version live in tools/a3cs_lint/
// a3ck_layout.txt; changing the layout without bumping kCkptFormatVersion
// (or bumping without refreshing the record) is a violation.

std::uint64_t layout_fingerprint(const std::string& header_source);

// Value of kCkptFormatVersion in the header, or -1 when absent.
int parse_format_version(const std::string& header_source);

// Renders the fingerprint-file content for the current header.
std::string render_fingerprint_file(const std::string& header_source);

// Compares header vs the checked-in record (pass the file's content, empty
// string when the file is missing). `header_path` only labels findings.
std::vector<Finding> check_layout_fingerprint(
    const std::string& header_path, const std::string& header_source,
    const std::string& fingerprint_file_content);

}  // namespace a3cs_lint
