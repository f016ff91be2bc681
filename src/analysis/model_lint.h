// Model-consistency linter.
//
// The mini systems keep their declared ProgramModel and their executable code
// consistent by construction — but nothing used to *check* that, so a refactor
// could silently desynchronize them (an access point left pointing at a
// removed field, a collection op misspelled out of the Table 3 keyword lists,
// a method renamed without updating its call edges). LintModel performs the
// static checks a model must pass before the pipeline's results mean
// anything:
//
//   dangling-field       access point, log binding or field-index reference
//                        to a field id the model never declared
//   dangling-promotion   promoted_sites entry that is no valid access-point
//                        id, or promotion on a point without returned_directly
//   unknown-op           non-empty collection_op matching neither Table 3
//                        keyword list (the analysis would silently discard it)
//   method-less-class    executable access point whose class declares no
//                        methods (its frame could never be on a stack)
//   dangling-edge        call edge whose endpoints are undeclared (virtual
//                        edges must resolve to at least one dispatch target)
//   unreachable-point    executable access point whose anchor method the call
//                        graph cannot reach from any entry point
//   dangling-log-location log binding whose statement id is unregistered, or
//                        whose registered location names no declared method
//   dangling-io-method   IO point naming an (io_class, io_method) pair the
//                        model never declared as an IoMethodDecl
//   dangling-io-callsite executable IO point whose callsite is no declared
//                        method (its frame could never be on a stack)
//   unreachable-io-point executable IO point whose callsite the call graph
//                        cannot reach from any entry point
//   network-window-invalid
//                        model-declared network-fault window that cannot
//                        trigger: an out-of-range, non-executable, or
//                        unreachable anchor point; a zero partition window
//                        (the heal coincides with the cut and nothing is ever
//                        dropped); or an empty bug id (the window would have
//                        no ground truth to assert against)
//   scale-invariant-decl
//                        access point whose class, method or context method
//                        embeds a concrete node index or host:port instance —
//                        under --scale it would match only one replica of a
//                        replicated role
//   grammar-op-unknown-target
//                        fuzz-grammar op whose RPC target is no declared
//                        method, or whose crash/shutdown target class declares
//                        no methods — the generated op would be unroutable;
//                        also malformed shape (duplicate/empty name, missing
//                        victim prefix, non-positive weight, empty window)
//
// `tools/ctlint` runs this over all five shipped models in CI.
#ifndef SRC_ANALYSIS_MODEL_LINT_H_
#define SRC_ANALYSIS_MODEL_LINT_H_

#include <string>
#include <vector>

#include "src/model/program_model.h"

namespace ctanalysis {

struct LintIssue {
  std::string check;    // stable identifier, e.g. "dangling-field"
  std::string subject;  // what it is about, e.g. "point#12" or a method id
  std::string message;
};

struct LintResult {
  std::vector<LintIssue> issues;
  bool ok() const { return issues.empty(); }
  // Issues of one check kind; convenience for tests.
  int CountOf(const std::string& check) const;
};

LintResult LintModel(const ctmodel::ProgramModel& model);

}  // namespace ctanalysis

#endif  // SRC_ANALYSIS_MODEL_LINT_H_
