// farmlint rule engine.
//
// Rules operate on the token stream from lexer.h. Cross-file knowledge (which
// variable names are declared as unordered containers anywhere in the repo,
// which accessor names carry a `farmlint: stable` annotation) is gathered in
// a collection pass over every input file before any file is linted, so
// `for (auto& [k, v] : inflight_)` in a .cc file is caught even when
// `inflight_` is declared in the corresponding header.
//
// Suppression: a comment containing `farmlint: allow(rule-a, rule-b)`
// suppresses those rules on its own line and on the following line, so both
// trailing and preceding-line comments work. Convention: follow the closing
// parenthesis with a one-line justification. Naming an unknown rule in an
// allow list is itself an error (`bad-allow`).
#ifndef TOOLS_FARMLINT_RULES_H_
#define TOOLS_FARMLINT_RULES_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/farmlint/analyzer.h"
#include "tools/farmlint/diag.h"
#include "tools/farmlint/lexer.h"

namespace farmlint {

struct RuleInfo {
  const char* name;
  bool default_on;
  const char* description;
};

// Every rule farmlint knows about, with its default enablement. Rules that
// are off by default (`unordered-decl`) are switched on for specific
// directories via `.farmlint` config files.
const std::vector<RuleInfo>& AllRules();
bool IsKnownRule(const std::string& name);

struct FileInput {
  std::string path;            // display path for diagnostics
  bool is_header = false;      // .h / .hpp: include hygiene rules apply
  std::string basename;        // e.g. "rand.h" (drives the raw-rand exemption)
  std::vector<Token> tokens;
};

// Effective configuration for linting one file: which rules run, plus the
// await-safety accessor/guard lists (both tunable via `.farmlint`).
struct FileConfig {
  std::set<std::string> rules;
  AwaitConfig await;
};

class Linter {
 public:
  // Collection pass: record names declared with an unordered container type
  // and accessor names annotated `// farmlint: stable`. Call for every input
  // file before the first Lint() call.
  void CollectDeclarations(const FileInput& file);

  // Runs all rules in `config.rules` against one file. Diagnostics
  // suppressed by `farmlint: allow(...)` comments are dropped here, and
  // repeated reports for the same (line, rule) are de-duplicated.
  std::vector<Diagnostic> Lint(const FileInput& file, const FileConfig& config) const;

  const std::set<std::string>& unordered_names() const { return unordered_names_; }
  const std::set<std::string>& stable_names() const { return stable_names_; }

 private:
  // Member names (trailing underscore, per the codebase style) are visible
  // repo-wide: a member declared unordered in a header is iterated from
  // other translation units. Plain local names only apply within the file
  // that declares them, so an unordered local `m` in one test does not taint
  // every `m` in the repository.
  std::set<std::string> unordered_names_;
  std::map<std::string, std::set<std::string>> local_unordered_names_;  // by file path
  // Names declared with the flight::Recorder type, split the same way.
  std::set<std::string> recorder_names_;
  std::map<std::string, std::set<std::string>> local_recorder_names_;  // by file path
  // Accessor names whose declaration carries a `farmlint: stable` comment
  // anywhere in the input set: the annotation index. A stable accessor is
  // exempt from await-hazard provenance no matter which file calls it.
  std::set<std::string> stable_names_;
};

}  // namespace farmlint

#endif  // TOOLS_FARMLINT_RULES_H_
