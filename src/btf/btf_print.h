// Rendering of BTF types as C-like declarations, as stored in the DepSurf
// dataset (paper artifact, Appendix A.2.4).
#ifndef DEPSURF_SRC_BTF_BTF_PRINT_H_
#define DEPSURF_SRC_BTF_BTF_PRINT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/btf/btf.h"

namespace depsurf {

// C-ish rendering of a type: "struct file *", "const char *", "u64".
// Anything more than 32 levels down, or past a fixed budget of visited
// nodes, renders as "<cycle>", so hostile BTF costs bounded work.
std::string TypeString(const TypeGraph& graph, BtfTypeId id);

// TypeString(graph, id) for every id of one graph, each rendered on first
// use. Only top-level renders are kept: rendering stops 32 levels down, so
// a type's text inside another type depends on how deep it sits there.
// The graph must outlive the memo and stay unmodified while it is used.
class TypeStringMemo {
 public:
  explicit TypeStringMemo(const TypeGraph& graph);

  const TypeGraph& graph() const { return graph_; }
  // Stays valid for the memo's lifetime.
  const std::string& Get(BtfTypeId id);

 private:
  const TypeGraph& graph_;
  std::vector<std::optional<std::string>> renders_;  // by id; [0] is void
};

// Full declaration of a FUNC node:
//   "int vfs_fsync(struct file *file, int datasync)"
std::string FuncDeclString(const TypeGraph& graph, BtfTypeId func_id);
// The same, with the return and parameter types taken from `types`,
// written over `out` so one buffer serves many declarations.
void FuncDeclString(TypeStringMemo& types, BtfTypeId func_id, std::string& out);

}  // namespace depsurf

#endif  // DEPSURF_SRC_BTF_BTF_PRINT_H_
