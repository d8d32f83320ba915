#!/usr/bin/env bash
# Compare bench outputs modulo the fields that measure the host rather
# than the simulation: "wall_seconds" and "throughput_mcycles_per_sec"
# lines in BENCH JSON, "finished in" lines in bench stdout.
#
#   bench-diff.sh REF OTHER...
#
# REF and each OTHER are either two files, compared directly, or two
# directories, in which case every REF/BENCH_*.json is compared with
# the file of the same name in OTHER. Exits 1 on the first mismatch.
set -euo pipefail

scrub() {
  case "$1" in
    *.json) grep -v -e '"wall_seconds"' -e '"throughput_mcycles_per_sec"' "$1" || true ;;
    *) grep -v -e "finished in" "$1" || true ;;
  esac
}

same() {
  if [ ! -f "$1" ] || [ ! -f "$2" ] || ! diff <(scrub "$1") <(scrub "$2"); then
    echo "MISMATCH: $1 vs $2" >&2
    exit 1
  fi
}

if [ "$#" -lt 2 ]; then
  echo "usage: bench-diff.sh REF OTHER..." >&2
  exit 2
fi
ref=$1
shift
for other in "$@"; do
  if [ -d "$ref" ]; then
    n=0
    for f in "$ref"/BENCH_*.json; do
      [ -e "$f" ] || continue
      same "$f" "$other/$(basename "$f")"
      n=$((n + 1))
    done
    if [ "$n" -eq 0 ]; then
      echo "no BENCH_*.json in $ref" >&2
      exit 1
    fi
    echo "$n BENCH files identical: $ref vs $other"
  else
    same "$ref" "$other"
    echo "identical: $ref vs $other"
  fi
done
