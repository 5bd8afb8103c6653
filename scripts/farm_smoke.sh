#!/bin/sh
# CI smoke for the distributed sizing farm: build the real ogwsd and
# ogws-worker binaries, start ogwsd in -coordinator mode on a free TCP
# port, then drive it with scripts/farmcheck — which registers the golden
# 12×10 grid mesh, runs the golden 3×3 bounds-grid sweep across two real
# worker processes with the first rigged by its fault plan to die
# mid-grid (-fault 'worker:cell:crash,after=1', which crashes it after its
# second cell), and diffs the reassembled grid bit-for-bit
# against a local single-process sweep and (on amd64) against
# internal/sweep/testdata/golden_grid.json. The coordinator must reap the
# dead worker and re-queue its job for the check to pass, so the fault
# path is exercised on every run, not just tolerated.
set -eu

tmp="$(mktemp -d)"
pid=""
cleanup() {
	status=$?
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	if [ "$status" -ne 0 ] && [ -s "$tmp/ogwsd.log" ]; then
		echo "farm_smoke: coordinator log:" >&2
		cat "$tmp/ogwsd.log" >&2
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/ogwsd" ./cmd/ogwsd
go build -o "$tmp/ogws-worker" ./cmd/ogws-worker

# Port 0 lets the kernel assign a free port — no pick-then-bind race —
# and -addr-file is how we learn which one it chose. The short heartbeat
# keeps the reap-and-requeue cycle fast enough for CI.
"$tmp/ogwsd" -coordinator -farm-heartbeat 250ms \
	-addr 127.0.0.1:0 -addr-file "$tmp/addr" >"$tmp/ogwsd.log" 2>&1 &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "farm_smoke: ogwsd exited before binding its port" >&2
		exit 1
	fi
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "farm_smoke: ogwsd did not write its address in time" >&2
		exit 1
	fi
	sleep 0.1
done

addr="$(head -n1 "$tmp/addr")"
go run ./scripts/farmcheck -addr "$addr" -worker-bin "$tmp/ogws-worker" \
	-golden internal/sweep/testdata/golden_grid.json
