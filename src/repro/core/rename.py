"""Register renaming: RAT, physical register file, and free list.

The physical register file is the destination of RFP prefetches: a prefetch
packet carries the load's renamed destination (``prfid``) so the prefetched
data has a home — the paper's answer to "register files are not tagged".

Each physical register carries a *ready cycle* (the earliest cycle a
consumer may issue reading it) and the actual 64-bit value, so the model is
both a timing and a functional simulator.
"""

INFINITY = float("inf")


class PhysicalRegisterFile(object):
    """Physical registers with per-entry ready time and value.

    Event-driven wakeup: when a scheduler attaches itself (see
    :meth:`attach_scheduler`), each register additionally carries a
    *wakeup list* — the consumers parked on it while its producer is
    still executing.  :meth:`write` hands that list to the scheduler the
    moment a value lands, so completion pushes dependents toward the
    ready queue instead of the scheduler re-scanning its window.
    """

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.ready_cycle = [0] * num_entries
        self.value = [0] * num_entries
        #: Per-register consumer wakeup lists (event-driven mode only).
        self.waiters = None
        self.scheduler = None

    def attach_scheduler(self, scheduler):
        """Enable dependency-driven wakeup: completions notify ``scheduler``."""
        self.scheduler = scheduler
        self.waiters = [[] for _ in range(self.num_entries)]

    def write(self, preg, value, ready_cycle):
        self.value[preg] = value
        self.ready_cycle[preg] = ready_cycle
        waiters = self.waiters
        if waiters is not None:
            woken = waiters[preg]
            if woken:
                waiters[preg] = []
                self.scheduler.wake_consumers(woken)

    def read(self, preg):
        return self.value[preg]


class RenameUnit(object):
    """RAT + free list over a :class:`PhysicalRegisterFile`.

    The core's dispatch loop renames in place (it pops ``free_list`` and
    rewrites ``rat``) and its commit loop frees the overwritten mapping.
    Squash support: every rename records the previous mapping; the core
    walks squashed instructions youngest-first calling :meth:`unmap`.
    """

    def __init__(self, num_arch_regs, prf):
        self.prf = prf
        if prf.num_entries <= num_arch_regs:
            raise ValueError("PRF must be larger than the architectural file")
        # Architectural registers start mapped to pregs [0, num_arch_regs).
        self.rat = list(range(num_arch_regs))
        self.free_list = list(range(num_arch_regs, prf.num_entries))
        for preg in range(num_arch_regs):
            self.prf.write(preg, 0, 0)

    def unmap(self, arch_reg, new_preg, previous_preg):
        """Undo a rename during a squash (youngest-first order required)."""
        if self.rat[arch_reg] != new_preg:
            raise RuntimeError(
                "squash order violation: r%d maps to p%d, expected p%d"
                % (arch_reg, self.rat[arch_reg], new_preg)
            )
        self.rat[arch_reg] = previous_preg
        self.free_list.append(new_preg)

    def seed_architectural(self, values):
        """Install committed architectural register state (the fast-forward
        handoff): each architectural register's current mapping receives its
        warmed-up value, ready immediately."""
        if len(values) != len(self.rat):
            raise ValueError(
                "expected %d architectural values, got %d"
                % (len(self.rat), len(values))
            )
        for arch_reg, value in enumerate(values):
            self.prf.write(self.rat[arch_reg], value, 0)

    def architectural_values(self):
        """Read the committed architectural state (for emulator checks).

        Only meaningful when the pipeline is drained.
        """
        return [self.prf.read(preg) for preg in self.rat]
