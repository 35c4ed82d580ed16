#pragma once
// The daemon's error-code taxonomy — the single source of truth for
// every stable machine-readable "code" string a response frame may
// carry.  Dispatch (socket_server.cpp), the client (client.cpp), the
// conformance driver, and docs/protocol.md §5 all reference these
// constants; tools/check_protocol_docs.sh greps THIS header and fails
// CI when a code is missing from the docs table, so adding a code here
// without documenting it is a build-gate error, not drift.
//
// Codes are additive and never renamed: clients match on them (the
// retry/fallback logic in DaemonClient does), so a rename is a wire
// break.  Error classes predating the taxonomy (bad ticket, malformed
// JSON, solver failures) intentionally carry no code — their free-text
// "error" field is already load-bearing for older clients.

namespace elpc::daemon::codes {

/// Auth gate: the connection has not presented a valid token yet.
inline constexpr const char* kUnauthenticated = "unauthenticated";
/// The `auth` verb saw a wrong token.
inline constexpr const char* kAuthFailed = "auth_failed";
/// Per-connection in-flight job quota exceeded.
inline constexpr const char* kQuotaJobs = "quota_jobs";
/// Per-connection in-flight byte quota exceeded.
inline constexpr const char* kQuotaBytes = "quota_bytes";
/// Framing violation: over-cap unterminated frame, bad binary magic,
/// oversized/undecodable binary frame, or a binary frame on a
/// connection that never negotiated v2.  The stream cannot be trusted
/// to re-sync, so this code rides the last frame before a disconnect.
inline constexpr const char* kProtocol = "protocol";
/// `hello` found no overlap between the client's and the server's
/// supported version ranges.  The connection stays open at v1.
inline constexpr const char* kVersionMismatch = "version_mismatch";
/// `register_network` named an id already registered with different
/// content (the same content again is a no-op, answered ok).
inline constexpr const char* kConflict = "conflict";

}  // namespace elpc::daemon::codes
