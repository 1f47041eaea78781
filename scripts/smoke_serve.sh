#!/usr/bin/env bash
# Smoke test for the obfuscation job service: boot `obfuscade serve` on
# a random port with a persistent cache directory, exercise it, restart
# it on the same directory, and assert
#
#   - the identical pair reports one miss then one hit, with the same
#     job id and STL digest, and the served STL bytes hash to that digest
#   - /metrics exposes exactly one cache hit and two misses
#   - the two sinks of a stage agree: two core.job observations on
#     /metrics and two core.job spans in /trace.ndjson for the two
#     misses, one serve.sanitize of each for the sanitize pair
#   - one POST /jobs/batch coalesces a quality-matrix sweep: four
#     distinct jobs, all done, in submission order
#   - SIGTERM drains gracefully (exit 0) and flushes one provenance
#     manifest line per completed job (2 singles + 4 batch = 6)
#   - a fresh process on the same -cache-dir serves the original request
#     from disk: outcome disk_hit, identical digest, exactly one
#     obfuscade_cache_disk_hits_total and zero pipeline completions
#   - past -max-queue the server sheds with 429 + Retry-After while
#     still serving admitted work
#   - POST /sanitize is content-addressed and cached like jobs: the
#     identical upload pair is miss then hit with exact counters, the
#     artifact reads back by digest, a restart serves it as a disk_hit
#     without recomputing, and a full admission queue sheds a fresh
#     sanitize with 429 while cached addresses keep answering
#
# CI runs this in a fresh process, so the exact /metrics counter values
# are assertable (in-process tests share the global registry and cannot
# do this).
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
server_pid=""
# A single trap owns every background process — the server plus any
# still-running burst curls — so a mid-script assertion failure
# (set -e) never leaks one. Waiting lets the server's drain finish
# before the cache directory is deleted out from under it, or rm races
# the journal compaction.
cleanup() {
    local running
    running="$(jobs -pr)"
    if [ -n "$running" ]; then
        # shellcheck disable=SC2086
        kill $running 2>/dev/null || true
    fi
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "smoke_serve: FAIL: $*" >&2; exit 1; }

go build -o "$workdir/obfuscade" ./cmd/obfuscade

start_server() { # start_server <addr-file> <extra flags...>
    local addr_file="$1"; shift
    "$workdir/obfuscade" serve \
        -addr 127.0.0.1:0 \
        -addr-file "$addr_file" \
        -cache-dir "$workdir/cache" \
        "$@" &
    server_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$addr_file" ] && break
        kill -0 "$server_pid" 2>/dev/null || fail "server died during startup"
        sleep 0.1
    done
    [ -s "$addr_file" ] || fail "server never wrote its address"
    base="http://$(tr -d '[:space:]' < "$addr_file")"
}

stop_server() {
    kill -TERM "$server_pid"
    if ! wait "$server_pid"; then
        fail "server did not exit cleanly on SIGTERM"
    fi
    server_pid=""
}

submit() { curl -sf -X POST -H 'Content-Type: application/json' -d "$1" "$base/jobs?wait=1"; }

# ---- run 1: populate the cache, batch sweep, graceful drain ----------

start_server "$workdir/addr1" -manifest-out "$workdir/manifests.ndjson"

r1="$(submit '{"seed": 1}')"
r2="$(submit '{"seed": 1}')"
r3="$(submit '{"seed": 2, "resolution": "fine"}')"

for name in r1 r2 r3; do
    state="$(echo "${!name}" | jq -r .state)"
    [ "$state" = done ] || fail "$name state = $state: ${!name}"
done

[ "$(echo "$r1" | jq -r .outcome)" = miss ] || fail "first identical job must miss: $r1"
[ "$(echo "$r2" | jq -r .outcome)" = hit ]  || fail "second identical job must hit: $r2"
[ "$(echo "$r3" | jq -r .outcome)" = miss ] || fail "distinct job must miss: $r3"

sha1="$(echo "$r1" | jq -r .stl_sha256)"
sha2="$(echo "$r2" | jq -r .stl_sha256)"
[ -n "$sha1" ] && [ "$sha1" = "$sha2" ] || fail "identical jobs served different digests: $sha1 vs $sha2"
[ "$(echo "$r1" | jq -r .id)" = "$(echo "$r2" | jq -r .id)" ] || fail "identical jobs got different ids"

# Fresh process: the cache counters on /metrics are exact. They are
# read before any artifact read, which is a cache lookup too.
metrics="$(curl -sf "$base/metrics")"
echo "$metrics" | grep -qx 'obfuscade_cache_hits_total 1' \
    || fail "expected one cache hit:$(echo; echo "$metrics" | grep ^obfuscade_cache)"
echo "$metrics" | grep -qx 'obfuscade_cache_misses_total 2' \
    || fail "expected two cache misses:$(echo; echo "$metrics" | grep ^obfuscade_cache)"

# One stage instrumentation feeds both sinks: each pipeline run is one
# core.job observation on /metrics and one core.job span in the trace.
spans() { curl -sf "$base/trace.ndjson" | jq -s --arg n "$1" '[.[] | select(.kind == "span" and .name == $n)] | length'; }
echo "$metrics" | grep -qx 'obfuscade_core_job_seconds_count 2' \
    || fail "expected two timed pipeline runs:$(echo; echo "$metrics" | grep ^obfuscade_core_job)"
[ "$(spans core.job)" -eq 2 ] || fail "trace holds $(spans core.job) core.job spans, want 2"

# The served STL bytes hash to the reported digest. The job keeps no
# bytes; the read comes back through the result cache.
id1="$(echo "$r1" | jq -r .id)"
curl -sf "$base/jobs/$id1/stl" -o "$workdir/job1.stl"
served_sha="$(sha256sum "$workdir/job1.stl" | cut -d' ' -f1)"
[ "$served_sha" = "$sha1" ] || fail "served STL hashes to $served_sha, reported $sha1"

# One batch request sweeps a quality matrix: four distinct jobs come
# back done, in submission order, each with an artifact digest.
batch="$(curl -sf -X POST -H 'Content-Type: application/json' -d '{"jobs": [
    {"seed": 3, "resolution": "coarse", "orientation": "x-y"},
    {"seed": 3, "resolution": "coarse", "orientation": "x-z"},
    {"seed": 3, "resolution": "fine", "orientation": "x-y"},
    {"seed": 3, "resolution": "fine", "orientation": "x-z"}
]}' "$base/jobs/batch")"
[ "$(echo "$batch" | jq '.results | length')" -eq 4 ] || fail "batch results: $batch"
[ "$(echo "$batch" | jq '[.results[] | select(.state == "done")] | length')" -eq 4 ] \
    || fail "batch jobs not all done: $batch"
[ "$(echo "$batch" | jq '[.results[].id] | unique | length')" -eq 4 ] \
    || fail "batch sweep must produce four distinct jobs: $batch"

# POST /sanitize destroys the stego channels of a raw STL body, cached
# by content address: the identical upload pair is one miss then one
# hit, the artifact reads back by its digest, and the exact sanitize
# counters show one compute for two requests.
san1="$(curl -sf -X POST --data-binary "@$workdir/job1.stl" "$base/sanitize")"
san2="$(curl -sf -X POST --data-binary "@$workdir/job1.stl" "$base/sanitize")"
[ "$(echo "$san1" | jq -r .outcome)" = miss ] || fail "first sanitize must miss: $san1"
[ "$(echo "$san2" | jq -r .outcome)" = hit ]  || fail "second sanitize must hit: $san2"
san_id="$(echo "$san1" | jq -r .id)"
san_sha="$(echo "$san1" | jq -r .stl_sha256)"
[ "$(echo "$san2" | jq -r .id)" = "$san_id" ] || fail "identical uploads got different addresses"
[ "$(echo "$san2" | jq -r .stl_sha256)" = "$san_sha" ] || fail "identical uploads got different digests"
echo "$san1" | jq -e .report.before >/dev/null || fail "sanitize reply carries no detection report: $san1"

curl -sf "$base/sanitize/$san_id/stl" -o "$workdir/sanitized.stl"
got_sha="$(sha256sum "$workdir/sanitized.stl" | cut -d' ' -f1)"
[ "$got_sha" = "$san_sha" ] || fail "sanitized STL hashes to $got_sha, reported $san_sha"

metrics="$(curl -sf "$base/metrics")"
echo "$metrics" | grep -qx 'obfuscade_serve_sanitize_requests_total 2' \
    || fail "expected two sanitize requests:$(echo; echo "$metrics" | grep ^obfuscade_serve_sanitize)"
echo "$metrics" | grep -qx 'obfuscade_serve_sanitize_completed_total 1' \
    || fail "expected one sanitize compute:$(echo; echo "$metrics" | grep ^obfuscade_serve_sanitize)"
echo "$metrics" | grep -qx 'obfuscade_serve_sanitize_seconds_count 1' \
    || fail "expected one timed sanitize:$(echo; echo "$metrics" | grep ^obfuscade_serve_sanitize)"
[ "$(spans serve.sanitize)" -eq 1 ] || fail "trace holds $(spans serve.sanitize) serve.sanitize spans, want 1"

# Keep a never-sanitized STL around for run 2's deterministic shed.
id3="$(echo "$r3" | jq -r .id)"
curl -sf "$base/jobs/$id3/stl" -o "$workdir/job3.stl"

# Graceful drain: SIGTERM exits 0 and flushes every completed manifest
# (2 single-submission runs + 4 batch runs).
stop_server

lines="$(wc -l < "$workdir/manifests.ndjson")"
[ "$lines" -eq 6 ] || fail "manifest lines = $lines, want 6"
while IFS= read -r line; do
    echo "$line" | jq -e .stl_sha256 >/dev/null || fail "bad manifest line: $line"
done < "$workdir/manifests.ndjson"

# ---- run 2: restart-warm from disk, then shed past -max-queue --------

start_server "$workdir/addr2" -max-queue 1

w1="$(submit '{"seed": 1}')"
[ "$(echo "$w1" | jq -r .outcome)" = disk_hit ] \
    || fail "post-restart job must come from disk: $w1"
[ "$(echo "$w1" | jq -r .stl_sha256)" = "$sha1" ] \
    || fail "restart-warm digest drifted: $w1"

# Fresh process again: exactly one disk hit, and the pipeline never ran
# (zero-valued counters are omitted from the export, so a completions
# counter merely being present would mean a pipeline run).
metrics="$(curl -sf "$base/metrics")"
echo "$metrics" | grep -qx 'obfuscade_cache_disk_hits_total 1' \
    || fail "expected one disk hit:$(echo; echo "$metrics" | grep -E '^obfuscade_(cache|serve)')"
if echo "$metrics" | grep -q '^obfuscade_serve_jobs_completed_total'; then
    fail "restart-warm must not run the pipeline:$(echo; echo "$metrics" | grep ^obfuscade_serve)"
fi

# Sanitize artifacts are restart-warm too: the run-1 upload comes back
# from the disk tier without re-sanitizing, same address and digest.
sw="$(curl -sf -X POST --data-binary "@$workdir/job1.stl" "$base/sanitize")"
[ "$(echo "$sw" | jq -r .outcome)" = disk_hit ] || fail "post-restart sanitize must come from disk: $sw"
[ "$(echo "$sw" | jq -r .id)" = "$san_id" ] || fail "restart-warm sanitize address drifted: $sw"
[ "$(echo "$sw" | jq -r .stl_sha256)" = "$san_sha" ] || fail "restart-warm sanitize digest drifted: $sw"
metrics="$(curl -sf "$base/metrics")"
echo "$metrics" | grep -qx 'obfuscade_cache_disk_hits_total 2' \
    || fail "expected two disk hits after warm sanitize:$(echo; echo "$metrics" | grep ^obfuscade_cache)"
if echo "$metrics" | grep -q '^obfuscade_serve_sanitize_completed_total'; then
    fail "restart-warm sanitize must not recompute:$(echo; echo "$metrics" | grep ^obfuscade_serve_sanitize)"
fi
curl -sf "$base/sanitize/$san_id/stl" -o "$workdir/sanitized2.stl"
[ "$(sha256sum "$workdir/sanitized2.stl" | cut -d' ' -f1)" = "$san_sha" ] \
    || fail "restart-warm sanitized artifact drifted"

# Deterministic sanitize shed: an admitted async job occupies the single
# -max-queue slot (admission counts at submit, before the pipeline even
# starts), so a fresh sanitize body is shed with 429 + Retry-After while
# the warm address above kept answering. Once the job drains, the same
# body is admitted and sanitized.
slow="$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"seed": 99, "resolution": "fine"}' "$base/jobs")"
slow_id="$(echo "$slow" | jq -r .id)"
[ -n "$slow_id" ] || fail "async submit returned no id: $slow"
san_code="$(curl -s -o "$workdir/san_shed_body" -D "$workdir/san_shed_hdr" -w '%{http_code}' \
    -X POST --data-binary "@$workdir/job3.stl" "$base/sanitize")"
[ "$san_code" = 429 ] || fail "sanitize against a full queue: status $san_code: $(cat "$workdir/san_shed_body")"
grep -qi '^Retry-After:' "$workdir/san_shed_hdr" \
    || fail "shed sanitize without Retry-After: $(cat "$workdir/san_shed_hdr")"
for _ in $(seq 1 100); do
    [ "$(curl -sf "$base/jobs/$slow_id" | jq -r .state)" = done ] && break
    sleep 0.1
done
[ "$(curl -sf "$base/jobs/$slow_id" | jq -r .state)" = done ] || fail "seed-99 job never finished"
san3="$(curl -sf -X POST --data-binary "@$workdir/job3.stl" "$base/sanitize")"
[ "$(echo "$san3" | jq -r .outcome)" = miss ] || fail "post-drain sanitize must run: $san3"

# Past -max-queue 1, a concurrent burst of distinct jobs sheds: at
# least one 429 carrying Retry-After, while at least one job is served.
burst_pids=()
for i in $(seq 1 8); do
    curl -s -o "$workdir/shed_body_$i" -D "$workdir/shed_hdr_$i" \
        -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        -d "{\"seed\": $((100 + i))}" "$base/jobs?wait=1" > "$workdir/shed_code_$i" &
    burst_pids+=($!)
done
wait "${burst_pids[@]}"
shed=0 served=0
for i in $(seq 1 8); do
    code="$(cat "$workdir/shed_code_$i")"
    case "$code" in
    429)
        grep -qi '^Retry-After:' "$workdir/shed_hdr_$i" \
            || fail "429 without Retry-After: $(cat "$workdir/shed_hdr_$i")"
        shed=$((shed + 1))
        ;;
    200) served=$((served + 1)) ;;
    *) fail "burst job $i: unexpected status $code: $(cat "$workdir/shed_body_$i")" ;;
    esac
done
[ "$shed" -ge 1 ] || fail "burst of 8 against -max-queue 1 shed nothing"
[ "$served" -ge 1 ] || fail "shedding served nothing at all"

# The shed counter surfaced on /metrics and agrees with the 429s (the
# burst's plus the one deterministic sanitize shed above).
shed_metric="$(curl -sf "$base/metrics" | awk '/^obfuscade_serve_shed_total/ {print $2}')"
[ "${shed_metric:-0}" -eq "$((shed + 1))" ] \
    || fail "serve.shed counter = ${shed_metric:-absent}, observed $((shed + 1)) 429s"

stop_server

echo "smoke_serve: OK (1 hit, 2 misses, 6 manifests, restart-warm disk_hit + sanitize disk_hit, $((shed + 1)) shed / $served served)"
