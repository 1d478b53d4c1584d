// Rendering of BTF types as C-like declarations and as JSON matching the
// DepSurf dataset format (paper artifact, Appendix A.2.4).
#ifndef DEPSURF_SRC_BTF_BTF_PRINT_H_
#define DEPSURF_SRC_BTF_BTF_PRINT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/btf/btf.h"

namespace depsurf {

// C-ish rendering of a type: "struct file *", "const char *", "u64".
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
// The same, with the return and parameter types taken from `types`.
std::string FuncDeclString(TypeStringMemo& types, BtfTypeId func_id);

// JSON rendering of a type tree (depth-limited; struct references render as
// {"kind": "STRUCT", "name": ...} without members, as in the paper dataset).
std::string TypeJson(const TypeGraph& graph, BtfTypeId id, int max_depth = 6);

}  // namespace depsurf

#endif  // DEPSURF_SRC_BTF_BTF_PRINT_H_
