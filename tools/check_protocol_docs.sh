#!/usr/bin/env sh
# Docs-consistency gate: every verb the daemon dispatches, every stable
# error code it answers, and every stats field it reports must be
# documented, and the submit verb's job-field table must match the job
# parser key for key.
#
# The sources of truth are the tables in the code:
#   * the verb table's name column in src/daemon/socket_server.cpp
#     (rows `{"verb", auth_exempt, &SocketServer::verb_...}`) — each verb
#     must appear in docs/protocol.md;
#   * the code constants in src/daemon/error_codes.hpp — each code must
#     appear in docs/protocol.md;
#   * the stats-field table in src/daemon/stats_fields.cpp (rows
#     `{"key" | nullptr, "elpc_family" | nullptr, ...}`) — each JSON key
#     must appear in the `stats` section of docs/protocol.md §3, and each
#     metric family in the metrics catalog of docs/operations.md;
#   * the keys job_from_json in src/service/serialize.cpp reads
#     (`doc.at("key")` / `doc.find("key")`) — each must be a row of the
#     job-field table in the `submit` section of docs/protocol.md, and
#     each row must be a key it reads.
# Section headers use the bare name, tables and prose use `backticks`.
# Run from anywhere:
#
#   sh tools/check_protocol_docs.sh
#
# Exits 1 listing what is undocumented, 2 when a table pattern matches
# nothing (the code changed shape and this script must follow).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
server="$repo_root/src/daemon/socket_server.cpp"
stats="$repo_root/src/daemon/stats_fields.cpp"
codes="$repo_root/src/daemon/error_codes.hpp"
serialize="$repo_root/src/service/serialize.cpp"
doc="$repo_root/docs/protocol.md"
ops="$repo_root/docs/operations.md"

for f in "$server" "$stats" "$codes" "$serialize" "$doc" "$ops"; do
  [ -f "$f" ] || { echo "check_protocol_docs: missing $f" >&2; exit 2; }
done

# names_missing NAMES FILE -> the names that FILE never mentions as a word.
names_missing() {
  missing=""
  for name in $1; do
    if ! printf '%s\n' "$2" | grep -qw -- "$name"; then
      missing="$missing $name"
    fi
  done
  printf '%s' "$missing"
}

# report WHAT SOURCE TARGET MISSING -> exit 1 with the list when non-empty.
report() {
  [ -z "$4" ] && return 0
  echo "check_protocol_docs: $1 in $2 but missing from $3:" >&2
  for name in $4; do
    echo "  - $name" >&2
  done
  exit 1
}

doc_text=$(cat "$doc")

verbs=$(grep -oE '\{"[a-z_]+", (true|false), &SocketServer::verb_' "$server" |
  sed 's/^{"\([a-z_]*\)".*/\1/' | sort -u)
[ -n "$verbs" ] || { echo "check_protocol_docs: no verb table rows found in $server (pattern drift?)" >&2; exit 2; }
report "verbs dispatched" "src/daemon/socket_server.cpp" \
  "docs/protocol.md (section 3, Verbs)" "$(names_missing "$verbs" "$doc_text")"

code_names=$(grep -oE '"[a-z_]+"' "$codes" | tr -d '"' | sort -u)
[ -n "$code_names" ] || { echo "check_protocol_docs: no codes found in $codes (pattern drift?)" >&2; exit 2; }
report "codes defined" "src/daemon/error_codes.hpp" \
  "docs/protocol.md (Error codes)" "$(names_missing "$code_names" "$doc_text")"

# Stats rows may wrap, so match on the table text joined into one line.
rows=$(tr '\n' ' ' < "$stats" |
  grep -oE '\{("[a-z_0-9]+"|nullptr), +("elpc_[a-z_0-9]+"|nullptr),' || true)
stat_keys=$(printf '%s\n' "$rows" | sed -n 's/^{"\([a-z_0-9]*\)",.*/\1/p' | sort -u)
families=$(printf '%s\n' "$rows" | grep -oE '"elpc_[a-z_0-9]+"' | tr -d '"' | sort -u)
[ -n "$stat_keys" ] && [ -n "$families" ] || { echo "check_protocol_docs: no stats-field rows found in $stats (pattern drift?)" >&2; exit 2; }

stats_section=$(awk '/^### stats/ { on = 1; next } on && /^##/ { exit } on' "$doc")
[ -n "$stats_section" ] || { echo "check_protocol_docs: no '### stats' section in $doc" >&2; exit 2; }
report "stats keys declared" "src/daemon/stats_fields.cpp" \
  "the stats section of docs/protocol.md" "$(names_missing "$stat_keys" "$stats_section")"

catalog=$(awk '/^## .*Metrics catalog/ { on = 1; next } on && /^## / { exit } on' "$ops")
[ -n "$catalog" ] || { echo "check_protocol_docs: no metrics catalog section in $ops" >&2; exit 2; }
report "metric families declared" "src/daemon/stats_fields.cpp" \
  "the metrics catalog of docs/operations.md" "$(names_missing "$families" "$catalog")"

job_keys=$(awk '/^SolveJob job_from_json\(/ { on = 1 } on && /^}/ { exit } on' "$serialize" |
  grep -oE 'doc\.(at|find)\("[a-z_]+"\)' | sed 's/^.*("\([a-z_]*\)")$/\1/' | sort -u)
[ -n "$job_keys" ] || { echo "check_protocol_docs: no job_from_json keys found in $serialize (pattern drift?)" >&2; exit 2; }
# A row's first cell may name several fields: | `source`, `destination` |.
job_rows=$(awk '/^### submit/ { on = 1; next } on && /^##/ { exit } on' "$doc" |
  awk '/^\| field \|/ { on = 1; next } on && !/^\|/ { exit } on' |
  sed -n 's/^| \([^|]*\) |.*/\1/p' | grep -oE '`[a-z_]+`' | tr -d '`' | sort -u)
[ -n "$job_rows" ] || { echo "check_protocol_docs: no job-field table in the submit section of $doc (pattern drift?)" >&2; exit 2; }
report "job fields read" "job_from_json (src/service/serialize.cpp)" \
  "the submit job-field table of docs/protocol.md" "$(names_missing "$job_keys" "$job_rows")"
report "job fields documented" "the submit job-field table of docs/protocol.md" \
  "what job_from_json (src/service/serialize.cpp) reads" "$(names_missing "$job_rows" "$job_keys")"

count() { printf '%s\n' "$1" | wc -l | tr -d ' '; }
echo "check_protocol_docs: ok ($(count "$verbs") verbs, $(count "$code_names") error codes, $(count "$stat_keys") stats keys, $(count "$families") metric families, $(count "$job_keys") job fields documented)"
