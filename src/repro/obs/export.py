"""Event exporters: deterministic JSONL and a Konata-style text timeline.

JSONL: one event per line, keys sorted, compact separators — the byte
stream is a pure function of the event list, which is itself a pure
function of (trace, config).  This is what makes serial and parallel runs
byte-comparable in CI.

The pipeline view renders one row per dynamic instruction (Konata-style):
a character per cycle marking the stage the instruction reached, with RFP
lifecycle annotations appended so a wrong-prefetch cancel/replay can be
read end to end on a single line.
"""

import json

from repro.obs.events import (
    COMMIT,
    DISPATCH,
    FETCH,
    ISSUE,
    RENAME,
    REPLAY,
    RFP_ARRIVE,
    RFP_CANCEL,
    RFP_DROP,
    RFP_INJECT,
    RFP_ISSUE,
    RFP_SPEC_WAKEUP,
    RFP_USE,
    SQUASH,
    STAGE_RANK,
    WRITEBACK,
)

#: Stage letter per event type, placed in STAGE_RANK order so later stages
#: win a same-cycle column collision.
_STAGE_CHARS = {
    FETCH: "F",
    RENAME: "R",
    DISPATCH: "D",
    RFP_INJECT: "q",
    RFP_ISSUE: "p",
    RFP_ARRIVE: "a",
    RFP_SPEC_WAKEUP: "s",
    ISSUE: "I",
    RFP_USE: "u",
    RFP_CANCEL: "!",
    RFP_DROP: "x",
    REPLAY: "r",
    WRITEBACK: "W",
    COMMIT: "C",
    SQUASH: "X",
}

_RFP_ANNOTATIONS = (
    (RFP_INJECT, "inject"),
    (RFP_ISSUE, "issue"),
    (RFP_ARRIVE, "arrive"),
    (RFP_SPEC_WAKEUP, "wakeup"),
    (RFP_USE, "use"),
    (RFP_CANCEL, "cancel"),
    (RFP_DROP, "drop"),
)

LEGEND = (
    "F fetch  R rename  D dispatch  I issue/execute  W writeback  C commit  "
    "X squash  r replay | RFP: q inject  p issue  a arrive  s spec-wakeup  "
    "u use  ! cancel  x drop"
)


def sort_events(events):
    """Deterministic display order: (cycle, seq, pipeline stage rank)."""
    return sorted(
        events, key=lambda e: (e["cycle"], e["seq"], STAGE_RANK.get(e["ev"], 99))
    )


def window_events(events, cycle_range):
    """The events inside the inclusive ``(lo, hi)`` cycle window from
    :func:`~repro.obs.tracer.parse_cycle_range` (None = all of them)."""
    if cycle_range is None:
        return events
    lo, hi = cycle_range
    return [e for e in events
            if e["cycle"] >= lo and (hi is None or e["cycle"] <= hi)]


def dump_jsonl(events):
    """Serialize events to deterministic JSONL text."""
    lines = [
        json.dumps(event, sort_keys=True, separators=(",", ":"))
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(events, path):
    with open(path, "w") as handle:
        handle.write(dump_jsonl(events))


def _group_by_seq(events):
    by_seq = {}
    for event in events:
        seq = event["seq"]
        if seq < 0:
            continue
        by_seq.setdefault(seq, []).append(event)
    return by_seq


def _annotate_rfp(seq_events):
    parts = []
    for ev_name, label in _RFP_ANNOTATIONS:
        for event in seq_events:
            if event["ev"] != ev_name:
                continue
            note = "%s@%d" % (label, event["cycle"])
            if ev_name in (RFP_CANCEL, RFP_DROP):
                note += "(%s)" % event.get("reason", "?")
            parts.append(note)
    return " ".join(parts)


def pipeline_view(events, cycle_range=None, max_width=200):
    """Render a per-instruction ASCII timeline of sorted ``events``.

    Args:
        events: event dicts (sorted or not; they are sorted internally).
        cycle_range: optional inclusive (lo, hi) display window; defaults
            to the span of the events themselves.
        max_width: cap on rendered columns, so an unbounded window cannot
            produce megabyte lines; the view is truncated with a notice.
    """
    events = sort_events(events)
    by_seq = _group_by_seq(events)
    if not by_seq:
        return "(no events)"
    cycles = [e["cycle"] for e in events]
    lo = cycle_range[0] if cycle_range else min(cycles)
    hi = cycle_range[1] if cycle_range and cycle_range[1] is not None else max(cycles)
    truncated = False
    if hi - lo + 1 > max_width:
        hi = lo + max_width - 1
        truncated = True
    width = hi - lo + 1

    ruler = [" "] * width
    for col in range(0, width, 10):
        for offset, digit in enumerate(str(lo + col)):
            if col + offset < width:
                ruler[col + offset] = digit

    label_fmt = "%6s %-6s %-10s "
    lines = [
        "cycles %d..%d%s" % (lo, hi, " (truncated)" if truncated else ""),
        LEGEND,
        label_fmt % ("seq", "op", "pc") + "".join(ruler),
    ]
    for seq in sorted(by_seq):
        seq_events = by_seq[seq]
        op = pc = "?"
        for event in seq_events:
            if event["ev"] == RENAME:
                op = event.get("op", "?")
                pc = "0x%x" % event.get("pc", 0)
                break
        visible = [e for e in seq_events if lo <= e["cycle"] <= hi]
        if not visible:
            continue
        first = min(e["cycle"] for e in visible)
        last = max(e["cycle"] for e in visible)
        row = [" "] * width
        for col in range(first - lo, last - lo + 1):
            row[col] = "."
        issue_cycle = writeback_cycle = None
        for event in visible:
            if event["ev"] == ISSUE:
                issue_cycle = event["cycle"]
            elif event["ev"] == WRITEBACK:
                writeback_cycle = event["cycle"]
        if issue_cycle is not None and writeback_cycle is not None:
            for cycle in range(issue_cycle + 1, writeback_cycle):
                if lo <= cycle <= hi:
                    row[cycle - lo] = "="
        for event in visible:
            char = _STAGE_CHARS.get(event["ev"])
            if char is not None:
                row[event["cycle"] - lo] = char
        line = label_fmt % (seq, op, pc) + "".join(row).rstrip()
        annotation = _annotate_rfp(seq_events)
        if annotation:
            line += "  [rfp: %s]" % annotation
        lines.append(line)
    return "\n".join(lines)
