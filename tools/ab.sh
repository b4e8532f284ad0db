#!/usr/bin/env bash
# A/B comparison of the serving benchmark between a git revision and
# the working tree.
#
#   bash tools/ab.sh REV [SEED]
#
# Exports REV with `git archive` into a temporary directory (no
# worktree is registered, so an interrupted run leaves the repository
# untouched), then on each workload alternates
# `bash servebench/run.sh --workload W --seed SEED --trace 0` ten times
# between REV and the working tree, swapping which side runs first on
# every pair. For each workload it prints every metric's median on
# both sides, the spread between REV's quartiles, how many pairs the
# working tree won (by the metric's "better" direction in
# BENCHMARK.json), the runs' `failed` counts and their wall seconds.
# Run from the repository root; needs jq.
# Writes only the temporary directory and each side's .bench_build/.
set -eu

rev=${1:?usage: tools/ab.sh REV [SEED]}
seed=${2:-1}
pairs=10
here=$(pwd)
command -v jq >/dev/null || { echo "tools/ab.sh: needs jq" >&2; exit 2; }
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/runs"
git archive "$rev" | tar -x -C "$tmp/base"
short=$(git rev-parse --short "$rev")

# Build both sides before any timed run.
for dir in "$tmp/base" "$here"; do
  (cd "$dir" && bash servebench/run.sh --self-test >/dev/null)
done

# run SIDE DIR WORKLOAD PAIR: one benchmark run; its JSON line goes to
# $tmp/runs/WORKLOAD.SIDE.PAIR.json, its wall seconds beside it.
run() {
  local out="$tmp/runs/$3.$1.$4" start end
  start=$(date +%s.%N)
  (cd "$2" && bash servebench/run.sh --workload "$3" --seed "$seed" \
    --trace 0) >"$out.log" 2>&1 || true
  end=$(date +%s.%N)
  tail -n 1 "$out.log" >"$out.json"
  echo "$start $end" | awk '{ printf "%.1f\n", $2 - $1 }' >"$out.wall"
}

# "better" direction of every end-to-end metric, as "name lower|higher".
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json >"$tmp/better"

for w in hot-audits cold-audits delta-churn; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run base "$tmp/base" "$w" "$i"; run tree "$here" "$w" "$i"
    else
      run tree "$here" "$w" "$i"; run base "$tmp/base" "$w" "$i"
    fi
  done
  # One "side pair metric value" line per measurement.
  for f in "$tmp/runs/$w".*.json; do
    id=${f#"$tmp/runs/$w."}; side=${id%%.*}; i=${id#*.}; i=${i%.json}
    jq -r --arg s "$side" --arg i "$i" \
      '(.metrics | to_entries[] | "\($s) \($i) \(.key) \(.value.value)"),
       "\($s) \($i) failed \(.failed)"' "$f" 2>/dev/null ||
      echo "$side $i failed unreadable"
    echo "$side $i wall_s $(cat "${f%.json}.wall")"
  done >"$tmp/$w.rows"
  echo "== $w: seed $seed, $pairs pairs, $short (base) vs working tree =="
  awk -v better_file="$tmp/better" '
    BEGIN { while ((getline l < better_file) > 0) { split(l, a, " "); dir[a[1]] = a[2] } }
    # The p-quantile of a space-separated list, interpolating linearly.
    function quantile(list, p,   n, v, i, j, t, x, lo) {
      n = split(list, v, " ")
      for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) {
        t = v[j]; v[j] = v[j-1]; v[j-1] = t }
      x = 1 + p * (n - 1); lo = int(x)
      return lo >= n ? v[n] : v[lo] + (x - lo) * (v[lo+1] - v[lo])
    }
    {
      if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 }
      vals[$1, $3] = vals[$1, $3] " " $4; at[$1, $2, $3] = $4; pair[$2] = 1
    }
    END {
      printf "%-18s %14s %14s %14s %8s\n", "metric", "base median", "base IQR",
        "tree median", "tree won"
      for (k = 1; k <= m; k++) {
        name = order[k]; won = "-"
        if (name in dir) {
          won = 0; total = 0; tied = 0
          for (p in pair) {
            b = at["base", p, name]; t = at["tree", p, name]
            if (b == "" || t == "") continue
            total++
            if (t + 0 == b + 0) tied++
            else if ((dir[name] == "lower" && t + 0 < b + 0) ||
                     (dir[name] == "higher" && t + 0 > b + 0)) won++
          }
          won = tied == total ? "tied" : won "/" total
        }
        b = vals["base", name]
        printf "%-18s %14.6g %14.6g %14.6g %8s\n", name, quantile(b, 0.5),
          quantile(b, 0.75) - quantile(b, 0.25), quantile(vals["tree", name], 0.5), won
      }
    }' "$tmp/$w.rows"
  grep -h "failed" "$tmp/$w.rows" | awk '$4 != 0 { bad = 1 }
    END { if (bad) print "WARNING: some runs failed or were unreadable" }'
done
