#!/usr/bin/env bash
# Shared determinism harness for the CI legs that all follow the same
# shape: build one release binary from nostop-bench, run it with
# NOSTOP_JOBS=1 and NOSTOP_JOBS=8, and byte-diff the stdout (and, when
# the artifact itself is deterministic, the written file). --probe adds
# a third run under NOSTOP_PROBE=1, which holds every fast path to its
# exact result; its output must also match the serial run. A serial
# stdout that contains the word NaN fails the run: a report that prints
# NaN has lost a measurement somewhere.
#
# Usage: ci/determinism.sh <bin> [--artifact <ext>] [--diff-artifact]
#                                [--probe]
#
#   <bin>            nostop-bench binary name (fig6, chaos_report, ...)
#   --artifact <ext> the binary takes an output path as its first
#                    positional argument; write it under /tmp with <ext>
#   --diff-artifact  also byte-diff the serial artifact against the
#                    parallel (and probe) one (omit for reports that
#                    embed wall times)
#   --probe          extra run with NOSTOP_PROBE=1; stdout (and, with
#                    --diff-artifact, the artifact) must match serial
set -euo pipefail

bin=$1
shift
artifact_ext=""
diff_artifact=0
probe=0
while [ $# -gt 0 ]; do
  case "$1" in
    --artifact)
      artifact_ext=$2
      shift 2
      ;;
    --diff-artifact)
      diff_artifact=1
      shift
      ;;
    --probe)
      probe=1
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

cargo build --release -p nostop-bench --bin "$bin"

out="/tmp/determinism-$bin"
mkdir -p "$out"

run() { # run <label> <env assignments...>
  local label=$1
  shift
  local args=()
  if [ -n "$artifact_ext" ]; then
    args+=("$out/$label.$artifact_ext")
  fi
  env "$@" "./target/release/$bin" "${args[@]}" >"$out/$label.txt"
}

same_as_serial() { # same_as_serial <label>
  diff "$out/serial.txt" "$out/$1.txt"
  if [ "$diff_artifact" = 1 ] && [ -n "$artifact_ext" ]; then
    diff "$out/serial.$artifact_ext" "$out/$1.$artifact_ext"
  fi
}

run serial NOSTOP_JOBS=1
if grep -qw NaN "$out/serial.txt"; then
  echo "determinism: $bin printed NaN:" >&2
  grep -nw NaN "$out/serial.txt" >&2
  exit 1
fi
run parallel NOSTOP_JOBS=8
same_as_serial parallel
if [ "$probe" = 1 ]; then
  run probe NOSTOP_PROBE=1
  same_as_serial probe
fi
echo "determinism: $bin output byte-identical across runs"
