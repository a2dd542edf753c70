"""Per-cycle L1 load-port arbitration.

The paper's central bandwidth argument: RFP adds **no** load ports.  RFP
requests bid for whatever ports demand loads leave free each cycle, at the
lowest priority.  Fig. 14 evaluates an alternative with doubled ports where
half are *dedicated* to RFP; the arbiter supports both shapes.
"""


class LoadPortArbiter(object):
    """Tracks L1 load-port grants within a single cycle.

    The core's cycle step zeroes the three per-cycle counters, its demand
    load issue takes a port by bumping ``_demand_used`` while it is below
    ``num_ports``, and the RFP engine (and the DLVP probe) claim what is
    left via :meth:`claim_rfp`.  Demand loads issue before the RFP pump
    within a cycle, which gives them the higher priority.

    Args:
        num_ports: ports usable by demand loads.
        rfp_dedicated_ports: extra ports only RFP may use (Fig. 14 config).
        rfp_shares_demand_ports: when True (default) RFP may also use
            demand ports left free this cycle.
    """

    def __init__(self, num_ports=2, rfp_dedicated_ports=0, rfp_shares_demand_ports=True):
        self.num_ports = num_ports
        self.rfp_dedicated_ports = rfp_dedicated_ports
        self.rfp_shares_demand_ports = rfp_shares_demand_ports
        self._demand_used = 0
        self._rfp_dedicated_used = 0
        self._rfp_shared_used = 0

    def claim_rfp(self):
        """Try to grant an RFP request a port this cycle.

        Dedicated RFP ports are consumed first; shared demand ports are used
        only when allowed and left over, so RFP can never displace a demand
        load that already claimed its port this cycle.
        """
        if self._rfp_dedicated_used < self.rfp_dedicated_ports:
            self._rfp_dedicated_used += 1
            return True
        if self.rfp_shares_demand_ports:
            shared_free = self.num_ports - self._demand_used - self._rfp_shared_used
            if shared_free > 0:
                self._rfp_shared_used += 1
                return True
        return False

    def __repr__(self):
        return "<LoadPortArbiter %d demand + %d dedicated RFP>" % (
            self.num_ports,
            self.rfp_dedicated_ports,
        )
