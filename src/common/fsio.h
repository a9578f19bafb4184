#ifndef FACTION_COMMON_FSIO_H_
#define FACTION_COMMON_FSIO_H_

#include <cstdint>
#include <string>

#include "common/status.h"

// Durable-file-commit helpers for the tmp+rename writers in the tree
// (serve/checkpoint.cc session snapshots and manifests). A rename alone
// makes a save *atomic* but not *durable*: on power loss the filesystem
// may persist the rename before the renamed file's blocks, leaving a
// correctly-named empty or torn checkpoint. CommitFileDurable closes that hole with the classic
// sequence fsync(tmp) -> rename -> fsync(parent dir).

namespace faction {

/// False when the FACTION_NO_FSYNC environment variable is set (to any
/// value). The escape hatch exists for tests and bulk experiment runs
/// where per-save fsync latency matters and durability does not; the
/// tmp+rename atomicity is unaffected.
bool FsyncEnabled();

/// fsync(2) the file at `path`. No-op Ok when fsync is disabled.
Status SyncFile(const std::string& path);

/// fsync(2) the parent directory of `path`, making a rename into that
/// directory durable. No-op Ok when fsync is disabled.
Status SyncParentDir(const std::string& path);

/// Durably commits `tmp_path` over `final_path`: fsync(tmp) -> rename ->
/// fsync(parent of final). On any failure the tmp file is removed and the
/// final path is left untouched (never truncated). With fsync disabled
/// this degrades to plain atomic rename.
Status CommitFileDurable(const std::string& tmp_path,
                         const std::string& final_path);

/// Process-wide count of fsync(2) calls issued through this module;
/// regression tests pin that durable saves actually sync.
std::uint64_t FsyncCallsForTest();

}  // namespace faction

#endif  // FACTION_COMMON_FSIO_H_
