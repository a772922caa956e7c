// T_ir generator (Section III-A / IV-A): IR module -> semantic tree.
// "Like the frontend tree, we discard all symbol names but retain
// instruction names, functions, basic blocks, and globals." Operand
// identities are reduced to their kind (value / constant / argument /
// global / label) so register numbering never contributes distance.
#pragma once

#include "ir/ir.hpp"
#include "tree/tree.hpp"

namespace sv::ir {

/// Build T_ir. Runtime functions and globals (the offload
/// boilerplate) are kept: that is precisely why offload models "misbehave".
[[nodiscard]] tree::Tree buildIrTree(const Module &m);

} // namespace sv::ir
