// The traced run's view of indexing and linting: the same work the library's
// drivers do (db::indexBatch's four unit stages, silvervale::lintCodebase's
// parse→lint pipeline), but issued as one public layer call at a time, each
// under its own span, on the calling thread. The outputs must be identical to
// the untraced drivers' — the workloads compare digests to prove it.
#pragma once

#include "common.hpp"
#include "silvervale/silvervale.hpp"

namespace e2e::layers {

/// silvervale::indexAllPorts, layer by layer.
[[nodiscard]] std::vector<sv::silvervale::CorpusPort> indexAllPorts(PassCtx &ctx);

/// silvervale::lintCodebase with every tier on, layer by layer.
[[nodiscard]] sv::lint::Report lintCodebase(const sv::db::Codebase &codebase, PassCtx &ctx);

/// Build the engine's views of every `metric` tree of `dbs` ahead of a
/// matrix over them, so view building and the DP get separate spans.
void buildViews(const std::vector<const sv::db::CodebaseDb *> &dbs, sv::metrics::Metric metric);

} // namespace e2e::layers
