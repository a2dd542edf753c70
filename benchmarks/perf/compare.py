"""Compare two benchmark sessions: ``python compare.py BASE.json NEW.json``.

Prints one row per (workload, end-to-end metric) with each side's median,
quartiles and run count, and a verdict:

- ``improved``: NEW wins at least 9/10 of the run pairs (run i against
  run i; ties count for neither) and the medians differ by more than
  BASE's interquartile range;
- ``worse``: NEW's median is worse than BASE's by more than the metric's
  bound (a share of BASE's median, from BENCHMARK.json);
- ``unresolved``: the run-to-run spread (either side's interquartile
  range, as a share of BASE's median) is wider than the bound, and not
  every NEW run reads better than every BASE run;
- ``unchanged``: otherwise.

Then the layer-table diff of the two traced sweeps, and whether the result
digests match.  Exits 1 when any row is ``worse``.
"""

import json
import statistics
import sys

from run import declared


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, new, better, bound):
    """Verdict on NEW against BASE for one metric (lists of run values)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0: worse
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_median - base_median)
    b1, b3 = quartiles(base)
    n1, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > b3 - b1:
        return "improved"
    if worse_by > bound * abs(base_median):
        return "worse"
    spread = max(b3 - b1, n3 - n1) / abs(base_median) if base_median else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base, new):
    """Rows, layer-diff lines and the worse count for two session dicts."""
    end_to_end, per_layer = declared()
    rows = []
    worse = 0
    layer_lines = []
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][workload], new["workloads"][workload]
        for d in end_to_end:
            bv, nv = b["e2e"][d["name"]], n["e2e"][d["name"]]
            result = verdict(bv, nv, d["better"], d["bound"])
            worse += result == "worse"
            rows.append(
                (workload, d["name"], d["unit"], bv, nv, d["bound"], result)
            )
        layer_lines.append(
            "== %s  digest %s" % (workload, "same" if b["digest"] == n["digest"] else "DIFFERS")
        )
        if "layers" not in b or "layers" not in n:
            continue
        for d in per_layer:
            old, cur = b["layers"][d["name"]], n["layers"][d["name"]]
            change = "%+8.1f%%" % (100.0 * (cur - old) / old) if old else "        "
            flag = ""
            if d["name"].startswith("model.") and old != cur:
                flag = "  DIFFERS"
            layer_lines.append(
                "  %-28s %-6s %14.6g %14.6g %s%s" % (d["name"], d["unit"], old, cur, change, flag)
            )
    return rows, layer_lines, worse


def format_rows(rows):
    lines = [
        "%-22s %-16s %-5s %27s %27s %5s  %s"
        % ("workload", "metric", "unit", "base median [q1 q3] n", "new median [q1 q3] n",
           "bound", "verdict")
    ]  # fmt: skip
    for workload, name, unit, bv, nv, bound, result in rows:
        cells = []
        for values in (bv, nv):
            q1, q3 = quartiles(values)
            cells.append(
                "%9.4g [%8.4g %8.4g] %d" % (statistics.median(values), q1, q3, len(values))
            )
        lines.append(
            "%-22s %-16s %-5s %27s %27s %5g  %s"
            % (workload, name, unit, cells[0], cells[1], bound, result)
        )
    return "\n".join(lines)


def main(argv):
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        base = json.load(handle)
    with open(argv[2]) as handle:
        new = json.load(handle)
    rows, layer_lines, worse = compare(base, new)
    print(format_rows(rows))
    print()
    print("layer table diff (base, new, change):")
    print("\n".join(layer_lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
