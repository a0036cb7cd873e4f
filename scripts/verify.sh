#!/usr/bin/env bash
# Tier-1 verification: build, test, and smoke-run the experiment harness.
#
# Usage: scripts/verify.sh
# The repro smoke check runs a cheap experiment in both execution modes
# and asserts the outputs are byte-identical (the harness's determinism
# guarantee — see DESIGN.md, "The experiment executor").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, every target, warnings fail) =="
# Tests, examples and bins too, so a helper only they orphaned still
# warns. Capture-then-grep (see below for why not a pipe).
if ! build_out=$(cargo build --release --workspace --all-targets 2>&1); then
  echo "$build_out" >&2
  exit 1
fi
if grep -q '^warning' <<< "$build_out"; then
  grep -A12 '^warning' <<< "$build_out" >&2
  echo "the build emitted warnings" >&2
  exit 1
fi

echo "== tests =="
# The root package is a workspace member, so this one run already covers
# the batteries that used to be re-run below: golden conformance (pinned
# fixtures replay to their pins), parallel replay ≡ serial, indexed ≡
# scratch time travel, partial order ≡ total order.
cargo test -q --workspace

echo "== migrate smoke: v1 golden fixture is refused until migrated, then verifies and replays =="
migrate_dir=$(mktemp -d)
cp tests/golden/v1/hello-delta/* "$migrate_dir"
# The program the hello fixtures were recorded from (tests/cli.rs PROGRAM).
cat > "$migrate_dir.pasm" <<'PASM'
.entry main
.text
main:
    movi r0, 2        ; SYS_WRITE
    movi r1, msg
    movi r2, 6
    syscall
    movi r0, 1        ; SYS_EXIT
    movi r1, 0
    syscall
.data
msg: .byte 0x68 0x65 0x6c 0x6c 0x6f 0x0a
PASM
# Capture-then-grep everywhere a command feeds grep -q: under pipefail
# an early-exiting grep breaks the writer's pipe mid-print and fails
# the pipeline even though the match succeeded.
# Before migrating, nothing but `migrate` reads v1: verify and replay
# must exit nonzero and name the way out.
for refused in "verify $migrate_dir" "replay $migrate_dir.pasm $migrate_dir"; do
  if refusal_out=$(./target/release/quickrec $refused 2>&1); then
    echo "quickrec ${refused%% *} accepted an unmigrated v1 recording" >&2
    exit 1
  fi
  grep -q 'quickrec migrate' <<< "$refusal_out" || {
    echo "quickrec ${refused%% *} refused a v1 recording without naming quickrec migrate" >&2
    exit 1
  }
done
migrate_out=$(./target/release/quickrec migrate "$migrate_dir")
grep -q 'migrated v1 -> v3' <<< "$migrate_out" || {
  echo "migrate did not report a v1 -> v3 upgrade" >&2
  exit 1
}
./target/release/quickrec verify "$migrate_dir" > /dev/null
replay_out=$(./target/release/quickrec replay "$migrate_dir.pasm" "$migrate_dir")
grep -q 'verified exact' <<< "$replay_out" || {
  echo "migrated v1 recording did not replay to its recorded outcome" >&2
  exit 1
}
migrate_out=$(./target/release/quickrec migrate "$migrate_dir")
grep -q 'nothing to do' <<< "$migrate_out" || {
  echo "second migrate was not a no-op" >&2
  exit 1
}
rm -rf "$migrate_dir" "$migrate_dir.pasm"
echo "v1 recording refused by verify/replay, migrated in place, verified, replayed; re-migrate is a no-op"

echo "== repro smoke: serial vs parallel must match byte-for-byte =="
serial=$(mktemp)
parallel=$(mktemp)
trap 'rm -f "$serial" "$parallel"' EXIT
./target/release/repro a6 --serial > "$serial"
./target/release/repro a6 --jobs 4 > "$parallel"
cmp "$serial" "$parallel"
echo "repro output identical across modes"

echo "== deterministic gates: E9b parallel replay, E12 observer effects, E14 indexed seeks, E15 ordering drift and growth =="
# Each experiment fails by exit code on its own gate: a parallel or
# ordered replay fingerprint off its serial one, a recording that moves
# with metrics on, an indexed seek or query off the from-scratch answer,
# partial-order bytes growing no slower than total order.
./target/release/repro e9b e12 e14 e15 > /dev/null
echo "parallel, ordered and indexed replay all byte-identical to serial; observability free"

echo "== partial-order smoke: record, verify, ordered replay via the CLI =="
order_dir=$(mktemp -d)
cat > "$order_dir/pingpong.pasm" <<'PASM'
; Two threads ping-ponging a flag: dense cross-thread dependency traffic.
.data
mailbox: .word 0
.align 64
flag:    .word 0
.text
main:
    movi r0, 3
    movi r1, consumer
    movi r2, 0
    syscall
    mov  r6, r0
    movi r7, 5
produce:
    movi r8, mailbox
    st   r8, 0, r7
    fence
    movi r8, flag
    movi r9, 1
    st   r8, 0, r9
    fence
wait_ack:
    ld   r9, r8, 0
    bnez r9, wait_ack
    addi r7, r7, -1
    bnez r7, produce
    movi r8, mailbox
    movi r9, 0
    st   r8, 0, r9
    movi r8, flag
    movi r9, 1
    st   r8, 0, r9
    fence
    movi r0, 4
    mov  r1, r6
    syscall
    mov  r1, r0
    movi r0, 1
    syscall
consumer:
    movi r6, 0
    movi r7, flag
    movi r8, mailbox
poll:
    ld   r9, r7, 0
    beqz r9, poll
    ld   r10, r8, 0
    movi r11, 0
    st   r7, 0, r11
    fence
    beqz r10, finish
    add  r6, r6, r10
    jmp  poll
finish:
    movi r0, 1
    mov  r1, r6
    syscall
PASM
record_out=$(./target/release/quickrec record "$order_dir/pingpong.pasm" -o "$order_dir/rec" \
  --cores 2 --order partial)
grep -q 'ordering log: partial order' <<< "$record_out" || {
  echo "record --order partial did not report an ordering log" >&2
  exit 1
}
[ -f "$order_dir/rec/order.qrp" ] || {
  echo "record --order partial wrote no order.qrp" >&2
  exit 1
}
./target/release/quickrec verify "$order_dir/rec" > /dev/null
replay_out=$(./target/release/quickrec replay "$order_dir/pingpong.pasm" "$order_dir/rec" --jobs 2)
grep -q 'partial-order replay' <<< "$replay_out" || {
  echo "replay did not reconstruct from the recorded partial order" >&2
  exit 1
}
rm -rf "$order_dir"
echo "partial-order recording round-trips through disk and replays under its edges"

echo "== fault-injection smoke: bounded mutated-recording campaign =="
./target/release/repro r1 --fuzz-iters 200 > /dev/null
echo "fault-injection contract holds (200 cases, no panics, prefixes verified)"

echo "== daemon smoke: serve, submit, fetch, verify, clean shutdown =="
smoke_dir=$(mktemp -d)
trap 'rm -f "$serial" "$parallel"; rm -rf "$smoke_dir"' EXIT
./target/release/quickrec serve --socket "$smoke_dir/qd.sock" \
  --store "$smoke_dir/store" --workers 2 > "$smoke_dir/serve.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  [ -S "$smoke_dir/qd.sock" ] && break
  sleep 0.1
done
if ! [ -S "$smoke_dir/qd.sock" ]; then
  echo "daemon socket never appeared; serve log follows" >&2
  cat "$smoke_dir/serve.log" >&2
  exit 1
fi
./target/release/quickrec submit --socket "$smoke_dir/qd.sock" \
  --workload fft --threads 2 --scale test > /dev/null
./target/release/quickrec fetch --socket "$smoke_dir/qd.sock" 1 -o "$smoke_dir/fetched" > /dev/null
./target/release/quickrec verify "$smoke_dir/fetched" > /dev/null
# Time-travel queries against the session just recorded: a dry run
# prints the plan, a real query executes, and repeating its replay id
# must answer from the idempotence cache.
plan_out=$(./target/release/quickrec query --socket "$smoke_dir/qd.sock" 1 --range 0..2 --dry-run)
grep -q '^plan:' <<< "$plan_out" || {
  echo "query --dry-run did not print a plan" >&2
  exit 1
}
./target/release/quickrec query --socket "$smoke_dir/qd.sock" 1 \
  --reverse-step 2 --replay-id 7 > /dev/null
repeat_out=$(./target/release/quickrec query --socket "$smoke_dir/qd.sock" 1 \
  --reverse-step 2 --replay-id 7)
grep -q 'idempotence cache' <<< "$repeat_out" || {
  echo "repeated replay id was not served from the cache" >&2
  exit 1
}
# Scrape the live daemon's metrics. `stats --metrics` runs the text
# through qr_obs::parse_exposition before printing, so a zero exit means
# the exposition is well-formed; still assert the families that the
# record job just exercised actually showed up.
./target/release/quickrec stats --socket "$smoke_dir/qd.sock" --metrics > "$smoke_dir/metrics.txt"
for family in qr_server_requests_total qr_server_request_latency_us \
              qr_server_queries_total qr_recorder_chunks_total \
              qr_store_encode_latency_us; do
  if ! grep -q "^$family" "$smoke_dir/metrics.txt"; then
    echo "metrics exposition is missing family $family" >&2
    exit 1
  fi
done
grep -q 'quantile="0.99"' "$smoke_dir/metrics.txt" || {
  echo "metrics exposition lacks histogram quantile samples" >&2
  exit 1
}
echo "metrics exposition scraped from the live daemon and parsed"
./target/release/quickrec shutdown --socket "$smoke_dir/qd.sock" > /dev/null
wait "$server_pid"
if ls "$smoke_dir/store"/.tmp-* > /dev/null 2>&1; then
  echo "daemon shutdown left staging dirs behind" >&2
  exit 1
fi
if [ -e "$smoke_dir/qd.sock" ]; then
  echo "daemon shutdown left a stale socket behind" >&2
  exit 1
fi
echo "daemon round trip verified (recorded via the service, fetched, verified locally)"

echo "== daemon concurrency smoke: E16 quick mode against a live daemon =="
e16_dir=$(mktemp -d)
trap 'rm -f "$serial" "$parallel"; rm -rf "$smoke_dir" "$e16_dir"' EXIT
./target/release/quickrec serve --socket "$e16_dir/qd.sock" --store "$e16_dir/store" \
  --workers 2 --max-conns 512 > "$e16_dir/serve.log" 2>&1 &
e16_pid=$!
for _ in $(seq 1 100); do
  [ -S "$e16_dir/qd.sock" ] && break
  sleep 0.1
done
if ! [ -S "$e16_dir/qd.sock" ]; then
  echo "E16 daemon socket never appeared; serve log follows" >&2
  cat "$e16_dir/serve.log" >&2
  exit 1
fi
# E16 exits nonzero on an unanswered or unframed request or on a fetch
# that differs from the local recording.
QR_BENCH_CONNS=128 QR_BENCH_JOBS=8 QR_E16_SOCKET="$e16_dir/qd.sock" \
  ./target/release/repro e16 > /dev/null
# The event loop's own families must be live on the daemon the fleet
# just exercised.
./target/release/quickrec stats --socket "$e16_dir/qd.sock" --metrics > "$e16_dir/metrics.txt"
for family in qr_server_event_loop_wakeups_total qr_server_event_loop_events_total \
              qr_server_open_connections; do
  if ! grep -q "^$family" "$e16_dir/metrics.txt"; then
    echo "metrics exposition is missing event-loop family $family" >&2
    exit 1
  fi
done
./target/release/quickrec shutdown --socket "$e16_dir/qd.sock" > /dev/null
wait "$e16_pid"
if [ -e "$e16_dir/qd.sock" ]; then
  echo "E16 daemon shutdown left a stale socket behind" >&2
  exit 1
fi
echo "128 multiplexed connections served by the live daemon; fetches byte-identical"

echo "== end-to-end benchmark smoke: bench/ builds against these crates, every workload correct =="
# bench/ is its own package depending on the workspace crates by path;
# nothing above builds it. run.sh exits non-zero on a build failure or
# on any wrong output ("failed": 0 on every workload, traced and not).
bash bench/run.sh --quick > /dev/null
echo "qr-e2e built from source; all workloads ran with zero failed operations"

echo "== verify OK =="
