// Reader for the retired v2 path-loss stream format.
//
// Nothing in the library writes or opens v2 any more: save() writes v3 and
// every load is a mapped v3 open (pathloss/format.h). This serial reader
// is kept so `pathloss_db_tool --mode migrate-v3` can convert an old file;
// the tests decode the committed v2 fixture through it.
#pragma once

#include <string>

#include "pathloss/database.h"

namespace magus::pathloss {

/// Decodes a v2 file into an owned database. Layout: the header prefix
/// shared with v3 (format.h), then per entry sector, tilt, col0, row0,
/// window_cols, window_rows (i32), an FNV-1a checksum (u64) over those six
/// ints and the gains, and window_cols x window_rows raw floats. A damaged
/// file is rejected with a specific std::runtime_error ("truncated
/// header", "bad magic", "unsupported version", "invalid grid geometry",
/// "truncated entry", "oversized window", "does not fit the grid",
/// "checksum mismatch", "trailing bytes").
[[nodiscard]] PathLossDatabase read_v2(const std::string& path);

}  // namespace magus::pathloss
