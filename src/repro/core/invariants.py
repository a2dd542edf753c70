"""Microarchitectural invariant net for the detailed core.

The event-driven engine (PR 4) replaced per-cycle scans with lazily
maintained indexes — wakeup lists, ready heaps, per-word LSQ maps, live
counters — which makes silent state corruption possible in principle: a
counter that drifts or an index entry that outlives its instruction would
not crash, it would quietly change timing three PRs later.  This module
turns that class of bug into an immediate, located diagnostic.

:func:`violations` sweeps the core between cycles and returns a list of
human-readable findings (empty when healthy):

- ROB entries are in strictly ascending seq order and no squashed
  instruction lingers in the window;
- physical-register conservation: the free list, the RAT, and the
  in-flight previous mappings held by ROB entries partition the PRF
  exactly — no register leaked, none mapped twice;
- RFP prefetch-table inflight counters stay within ``[0, inflight_max]``
  and the RFP queue respects its configured bound;
- LSQ per-word (seq, dyn) indexes are sorted and agree with the
  instructions they point at (seq, word address, residency flag);
- scheduler bookkeeping: the live counter matches the window, each
  ready heap holds only its class (loads in ``ready_loads``, the rest in
  ``ready``) under its own seq, and both timing wheels' next events are
  not in the past.

Checking is driven by ``REPRO_CHECK_INVARIANTS=K`` (or the CLI's
``--check-invariants``): the core sweeps every K cycles and raises
:class:`InvariantViolation` on the first failure.  When the knob is unset
the hook is a single falsy-int test per cycle.

:func:`format_report` renders the same sweep's structural snapshot (ROB
head, occupancies, wheel next-events) — it is appended to the deadlock
diagnostic so a hang killed by the parallel engine's watchdog is
actionable from the failure manifest alone.
"""


class InvariantViolation(RuntimeError):
    """The invariant net found corrupted microarchitectural state."""


def _check_rob(core, out):
    prev = None
    for dyn in core.rob.entries:
        if dyn.state == -1:  # D.SQUASHED
            out.append(
                "ROB holds a squashed instruction: seq=%d pc=%#x"
                % (dyn.seq, dyn.pc)
            )
            break
        if prev is not None and dyn.seq <= prev:
            out.append(
                "ROB seq order broken: seq=%d follows seq=%d"
                % (dyn.seq, prev)
            )
            break
        prev = dyn.seq
    if len(core.rob.entries) > core.rob.num_entries:
        out.append(
            "ROB over capacity: %d entries in a %d-entry buffer"
            % (len(core.rob.entries), core.rob.num_entries)
        )


def _check_prf_conservation(core, out):
    free = core.rename.free_list
    rat = core.rename.rat
    held = [
        dyn.prev_preg
        for dyn in core.rob.entries
        if dyn.dest_preg is not None
    ]
    total = len(free) + len(rat) + len(held)
    if total != core.prf.num_entries:
        out.append(
            "PRF conservation broken: free=%d + RAT=%d + in-flight=%d "
            "= %d registers accounted for, PRF has %d"
            % (len(free), len(rat), len(held), total, core.prf.num_entries)
        )
        return
    seen = set(free)
    seen.update(rat)
    seen.update(held)
    if len(seen) != total:
        out.append(
            "PRF register mapped twice: free list, RAT and in-flight "
            "mappings cover only %d distinct registers out of %d slots"
            % (len(seen), total)
        )


def _check_lsq_index(name, index, residency_attr, out):
    for word_addr, lst in index.items():
        prev = None
        for seq, dyn in lst:
            if dyn.seq != seq:
                out.append(
                    "%s executed-index seq mismatch at word %#x: index says "
                    "%d, instruction is seq=%d" % (name, word_addr, seq, dyn.seq)
                )
                return
            if dyn.word_addr != word_addr:
                out.append(
                    "%s executed-index word mismatch: seq=%d filed under "
                    "%#x but accesses %#x"
                    % (name, seq, word_addr, dyn.word_addr)
                )
                return
            if not getattr(dyn, residency_attr):
                out.append(
                    "%s executed-index points at a departed instruction: "
                    "seq=%d has %s=False" % (name, seq, residency_attr)
                )
                return
            if prev is not None and seq <= prev:
                out.append(
                    "%s executed-index unsorted at word %#x: seq=%d after "
                    "seq=%d" % (name, word_addr, seq, prev)
                )
                return
            prev = seq


def _check_lsq(core, out):
    if len(core.lq.entries) > core.lq.num_entries:
        out.append(
            "LQ over capacity: %d/%d" % (len(core.lq.entries), core.lq.num_entries)
        )
    if core.sq.occupancy > core.sq.num_entries:
        out.append(
            "SQ over capacity: %d/%d" % (core.sq.occupancy, core.sq.num_entries)
        )
    _check_lsq_index("LQ", core.lq._executed, "in_lq", out)
    _check_lsq_index("SQ", core.sq._executed, "in_sq", out)


def _check_wheel(name, wheel, cycle, out):
    next_cycle = wheel.next_cycle()
    if next_cycle is not None and next_cycle < cycle:
        out.append(
            "%s next event at cycle %d is in the past (now %d)"
            % (name, next_cycle, cycle)
        )
    if sorted(wheel.cycles) != sorted(wheel.slots):
        out.append(
            "%s heap/slot divergence: %d heap cycles vs %d slots"
            % (name, len(wheel.cycles), len(wheel.slots))
        )


def _check_ready_heap(name, heap, loads, out):
    for seq, dyn in heap:
        if dyn.is_load != loads:
            out.append(
                "RS %s heap holds a %s: seq=%d pc=%#x"
                % (name, "load" if dyn.is_load else "non-load", seq, dyn.pc)
            )
            return
        if dyn.seq != seq:
            out.append(
                "RS %s heap key mismatch: keyed %d, instruction is seq=%d"
                % (name, seq, dyn.seq)
            )
            return


def _check_scheduler(core, out):
    rs = core.rs
    out.extend(rs.invariant_violations())
    _check_ready_heap("ready", rs.ready, False, out)
    _check_ready_heap("ready_loads", rs.ready_loads, True, out)
    _check_wheel("core timing wheel", core.events, core.cycle, out)
    _check_wheel("scheduler timing wheel", rs.wheel, core.cycle, out)


def _check_rfp(core, out):
    if core.rfp is not None:
        out.extend(core.rfp.invariant_violations())


def violations(core):
    """Sweep ``core`` between cycles; returns a list of findings."""
    out = []
    _check_rob(core, out)
    _check_prf_conservation(core, out)
    _check_lsq(core, out)
    _check_scheduler(core, out)
    _check_rfp(core, out)
    return out


def format_report(core):
    """A one-glance structural snapshot (used by the deadlock diagnostic)."""
    head = core.rob.entries[0] if core.rob.entries else None
    events_next = core.events.next_cycle()
    rs_next = core.rs.wheel.next_cycle()
    lines = [
        "invariant-net snapshot @ cycle %d:" % core.cycle,
        "  ROB: %d/%d occupancy, head %s"
        % (
            len(core.rob.entries),
            core.rob.num_entries,
            "seq=%d state=%d pc=%#x" % (head.seq, head.state, head.pc)
            if head is not None
            else "<empty>",
        ),
        "  RS: %d/%d occupancy, ready heaps %d + %d loads, wheel next "
        "event %s"
        % (
            core.rs.occupancy,
            core.rs.config.rs_entries,
            len(core.rs.ready),
            len(core.rs.ready_loads),
            rs_next if rs_next is not None else "<none>",
        ),
        "  LQ: %d/%d occupancy  SQ: %d active + %d senior / %d"
        % (
            len(core.lq.entries),
            core.lq.num_entries,
            len(core.sq.entries),
            len(core.sq.senior),
            core.sq.num_entries,
        ),
        "  PRF: %d/%d registers free" % (
            len(core.rename.free_list),
            core.prf.num_entries,
        ),
        "  core timing wheel: next event %s, %d pending"
        % (events_next if events_next is not None else "<none>", len(core.events)),
        "  frontend: trace index %d, fetch buffer %d"
        % (core.frontend.cursor.index, len(core.frontend.buffer)),
    ]
    if core.rfp is not None:
        lines.append(
            "  RFP: queue %d/%d, PT inflight sum %d"
            % (
                len(core.rfp.queue),
                core.rfp.rfp_config.queue_entries,
                core.rfp.pt.inflight_total(),
            )
        )
    return "\n".join(lines)


def check_core(core):
    """Raise :class:`InvariantViolation` when any invariant fails."""
    found = violations(core)
    if found:
        raise InvariantViolation(
            "invariant net caught corrupted state in workload %r under "
            "config %r at cycle %d:\n  - %s\n%s"
            % (
                core.trace.name,
                core.config.name,
                core.cycle,
                "\n  - ".join(found),
                format_report(core),
            )
        )
