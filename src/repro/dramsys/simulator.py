"""Transaction-level DRAM subsystem simulator (the DRAMSys stand-in).

The simulator executes a memory trace against one
:class:`~repro.dramsys.config.ControllerConfig` and a
:class:`~repro.dramsys.device.DramDevice`, producing the
``<latency, power, energy>`` observation of Table 3.

Modeled mechanisms — exactly the ones the controller parameters tune:

- per-bank row-buffer state machines (hit / miss / conflict timing with
  tRCD/tRP/tCL/tRC enforcement),
- page policies: open, closed, and their adaptive variants (speculative
  precharge driven by pending-queue lookahead),
- schedulers: FIFO, FR-FCFS (row hits first) and FR-FCFS-Grouped (row
  hits first, grouped by bus direction to avoid turnarounds),
- scheduler buffer organizations: shared pool, read/write queues with
  watermark-based write draining, and bankwise queues with round-robin
  bank selection,
- a shared data bus with read<->write turnaround penalties,
- refresh with postpone / pull-in elasticity at all-bank, same-bank and
  per-bank granularity,
- a front-end arbiter that bounds the scheduler's reorder window, an
  in-order or out-of-order response queue, and a cap on in-flight
  transactions,
- a DRAMPower-style energy model (per-command energies + state-dependent
  background power).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.dramsys.config import ControllerConfig
from repro.dramsys.device import DDR4_2400, DramDevice
from repro.dramsys.traces import Trace

__all__ = ["SimResult", "DramSimulator"]


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of simulating one trace on one controller."""

    avg_latency_ns: float
    power_w: float
    energy_uj: float
    exec_time_ns: float
    bandwidth_gbps: float
    row_hits: int
    row_misses: int
    row_conflicts: int
    refreshes: int
    reads: int
    writes: int
    energy_breakdown_nj: Optional[Dict[str, float]] = None  # act/rw/refresh/background

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0

    def metrics(self) -> Dict[str, float]:
        """The DRAMGym observation dictionary."""
        return {
            "latency": self.avg_latency_ns,
            "power": self.power_w,
            "energy": self.energy_uj,
            "exec_time": self.exec_time_ns,
            "bandwidth": self.bandwidth_gbps,
            "row_hit_rate": self.row_hit_rate,
        }


#: A trace decoded against one device: per-request arrival (ns), bank,
#: row and direction, as parallel tuples indexed by request order.
_Decoded = Tuple[tuple, tuple, tuple, tuple]


def _decode(trace: Trace, device: DramDevice) -> _Decoded:
    arrival, bank, row, is_write = [], [], [], []
    for r in trace.requests:
        b, rw = device.map_address(r.address)
        arrival.append(r.arrival_ns)
        bank.append(b)
        row.append(rw)
        is_write.append(r.is_write)
    return tuple(arrival), tuple(bank), tuple(row), tuple(is_write)


class DramSimulator:
    """Simulates memory traces against controller design points.

    :meth:`simulate` can be invoked repeatedly (the DSE loop does exactly
    that) and from several threads at once. The only state kept between
    calls is the decode of the last trace seen (address -> bank/row),
    held in one attribute that is replaced, never mutated.
    """

    def __init__(self, device: DramDevice = DDR4_2400):
        self.device = device
        self._decoded: Optional[Tuple[Trace, DramDevice, _Decoded]] = None

    # -- public API ---------------------------------------------------------------

    def simulate(self, config: ControllerConfig, trace: Trace) -> SimResult:
        """Run ``trace`` through a controller built from ``config``."""
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        device = self.device
        memo = self._decoded
        if memo is None or memo[0] is not trace or memo[1] is not device:
            memo = (trace, device, _decode(trace, device))
            self._decoded = memo
        return _execute(device, config, memo[2])


def _refresh_banks(
    first: int, count: int, nbanks: int, at: float, blackout_end: float,
    open_row: List[int], opened_since: List[float], open_time: List[float],
    blocked_until: List[float],
) -> None:
    """One refresh operation at ``at``: precharge ``count`` banks from
    ``first`` (round robin) and black them out until ``blackout_end``."""
    for k in range(count):
        b = (first + k) % nbanks
        if open_row[b] >= 0:
            span = at - opened_since[b]
            open_time[b] += span if span > 0.0 else 0.0
            open_row[b] = -1
        if blackout_end > blocked_until[b]:
            blocked_until[b] = blackout_end


def _execute(device: DramDevice, cfg: ControllerConfig, decoded: _Decoded) -> SimResult:
    """One simulation: a single event loop over request indices.

    Per-bank state lives in parallel lists (``open_row`` is -1 while the
    bank is precharged; ``opened_since`` is meaningful only while it is
    open) and every timing, energy and counter in a local. The
    ``if b > a: a = b`` comparisons stand in for ``max(a, b)`` with its
    tie rule (the earlier operand wins unless a later one is strictly
    greater), so every float result is the one ``max`` would give.
    """
    arrival, bank_of, row_of, is_write = decoded
    n = len(arrival)
    t = device.timings
    trc, trcd, trp, tras = t.trc, t.trcd, t.trp, t.tras
    tcl, tcwd, twr, twtr, trtw = t.tcl, t.tcwd, t.twr, t.twtr, t.trtw
    burst_time = t.burst_time
    energy = device.energy
    e_act, e_read, e_write = energy.e_act, energy.e_read, energy.e_write
    nbanks = device.banks

    # refresh granularity
    if cfg.refresh_policy == "AllBank":
        interval, duration, refresh_energy, banks_per_op = (
            t.trefi, t.trfc, energy.e_refresh, nbanks)
    elif cfg.refresh_policy == "SameBank":
        # two bank groups refreshed alternately, half the blackout each
        interval, duration, refresh_energy, banks_per_op = (
            t.trefi / 2, t.trfc * 0.6, energy.e_refresh / 2, nbanks // 2)
    else:
        # PerBank: one bank at a time, short blackout, lowest disturbance
        interval, duration, refresh_energy, banks_per_op = (
            t.trefi / nbanks, t.trfc * 0.3, energy.e_refresh / nbanks, 1)
    max_postponed = cfg.refresh_max_postponed
    max_pulledin = cfg.refresh_max_pulledin

    # controller policies, decided once
    cap = cfg.request_buffer_size
    max_active = cfg.max_active_transactions
    org = cfg.scheduler_buffer
    read_write_org = org == "ReadWrite"
    bankwise_org = org == "Bankwise"
    drain_stop = max(1, cap // 4)
    drain_start = max(1, (3 * cap) // 4)
    # Fifo arbiter: reordering restricted to the oldest half-window
    # (Reorder: the whole buffer, which never holds more than cap)
    window = cap if cfg.arbiter == "Reorder" else max(1, (cap + 1) // 2)
    fifo_sched = cfg.scheduler == "Fifo"
    grouped_sched = cfg.scheduler == "FrFcFsGrp"
    close_always = cfg.page_policy == "Closed"
    close_adaptive = cfg.page_policy in ("OpenAdaptive", "ClosedAdaptive")

    open_row = [-1] * nbanks
    ready_at = [0.0] * nbanks
    last_act = [float("-inf")] * nbanks
    blocked_until = [0.0] * nbanks    # refresh blackout
    opened_since = [0.0] * nbanks
    open_time = [0.0] * nbanks
    finish = [0.0] * n

    bus_free = 0.0
    bus_last_write: Optional[bool] = None
    now = 0.0
    refresh_due = interval
    refresh_debt = 0
    refresh_credit = 0
    refresh_rr_bank = 0
    n_refreshes = 0
    # energy accounting (nJ), split by component
    e_act_total = 0.0
    e_rw_total = 0.0
    e_refresh_total = 0.0
    row_hits = row_misses = row_conflicts = reads = writes = 0
    inflight: List[float] = []  # min-heap of finish times
    draining_writes = False     # ReadWrite organization drain state
    bank_rr = 0                 # Bankwise round-robin pointer
    heappush, heappop = heapq.heappush, heapq.heappop

    next_idx = 0
    buffer: List[int] = []      # request indices, oldest first
    while next_idx < n or buffer:
        # admit arrivals up to the request buffer capacity
        while next_idx < n and arrival[next_idx] <= now and len(buffer) < cap:
            buffer.append(next_idx)
            next_idx += 1

        if not buffer:
            # idle: pull refreshes into the gap (up to the pull-in cap),
            # then jump to the next arrival
            next_arrival = arrival[next_idx]
            while refresh_credit < max_pulledin and now + duration <= next_arrival:
                _refresh_banks(refresh_rr_bank, banks_per_op, nbanks, now, now + duration,
                               open_row, opened_since, open_time, blocked_until)
                refresh_rr_bank = (refresh_rr_bank + banks_per_op) % nbanks
                e_refresh_total += refresh_energy
                n_refreshes += 1
                refresh_credit += 1
                now += duration
            if next_arrival > now:
                now = next_arrival
            continue

        # refresh postpone/pull-in policy at the current time
        while now >= refresh_due:
            if refresh_credit > 0:
                # a pulled-in refresh already covered this interval
                refresh_credit -= 1
            elif refresh_debt < max_postponed:
                refresh_debt += 1
            else:
                # pay the whole debt in one blackout burst
                end = now
                for _ in range(refresh_debt + 1):
                    _refresh_banks(refresh_rr_bank, banks_per_op, nbanks, end, end + duration,
                                   open_row, opened_since, open_time, blocked_until)
                    refresh_rr_bank = (refresh_rr_bank + banks_per_op) % nbanks
                    e_refresh_total += refresh_energy
                    n_refreshes += 1
                    end += duration
                refresh_debt = 0
            refresh_due += interval

        # in-flight cap: wait for the oldest transaction to retire
        while len(inflight) >= max_active:
            retired = heappop(inflight)
            if retired > now:
                now = retired
        while inflight and inflight[0] <= now:
            heappop(inflight)

        # scheduler buffer organization, then the arbiter window
        if read_write_org:
            pool = [i for i in buffer if is_write[i]]
            if draining_writes:
                if len(pool) <= drain_stop:
                    draining_writes = False
            elif len(pool) >= drain_start:
                draining_writes = True
            if not (draining_writes and pool):
                pool = [i for i in buffer if not is_write[i]] or buffer
        elif bankwise_org:
            # the pointer wraps modulo the *current* number of banks with
            # work, so it drifts as that number changes (as modeled)
            banks_with_work = sorted({bank_of[i] for i in buffer})
            chosen_bank = banks_with_work[bank_rr % len(banks_with_work)]
            bank_rr = (bank_rr + 1) % len(banks_with_work)
            pool = [i for i in buffer if bank_of[i] == chosen_bank]
        else:
            pool = buffer
        if window < len(pool):
            pool = pool[:window]

        # scheduler: FR-FCFS serves row hits first; the grouped variant
        # prefers row hits matching the bus direction, then any row hit,
        # then same-direction, then oldest
        pick = pool[0]
        if not fifo_sched:
            if grouped_sched:
                direction = bus_last_write
                first_hit = first_same_dir = -1
                for i in pool:
                    if open_row[bank_of[i]] == row_of[i]:
                        if is_write[i] == direction:
                            pick = i
                            break
                        if first_hit < 0:
                            first_hit = i
                    elif first_same_dir < 0 and is_write[i] == direction:
                        first_same_dir = i
                else:
                    if first_hit >= 0:
                        pick = first_hit
                    elif first_same_dir >= 0:
                        pick = first_same_dir
            else:
                for i in pool:
                    if open_row[bank_of[i]] == row_of[i]:
                        pick = i
                        break
        buffer.remove(pick)

        # per-access timing
        b = bank_of[pick]
        row = row_of[pick]
        write = is_write[pick]
        start = now
        if ready_at[b] > start:
            start = ready_at[b]
        if blocked_until[b] > start:
            start = blocked_until[b]
        current = open_row[b]
        if current == row:
            row_hits += 1
            col_ready = start
        else:
            if current < 0:
                row_misses += 1
                act_at = last_act[b] + trc
                if not act_at > start:
                    act_at = start
            else:
                row_conflicts += 1
                span = start - opened_since[b]
                open_time[b] += span if span > 0.0 else 0.0
                pre_done = start + trp
                bound = last_act[b] + tras + trp
                if bound > pre_done:
                    pre_done = bound
                act_at = last_act[b] + trc
                if not act_at > pre_done:
                    act_at = pre_done
            last_act[b] = act_at
            opened_since[b] = act_at
            open_row[b] = row
            e_act_total += e_act
            col_ready = act_at + trcd

        turnaround = 0.0
        if bus_last_write is not None and bus_last_write != write:
            turnaround = twtr if bus_last_write else trtw
        data_start = col_ready + (tcwd if write else tcl)
        bus_ready = bus_free + turnaround
        if bus_ready > data_start:
            data_start = bus_ready
        done_at = data_start + burst_time
        bus_free = done_at
        bus_last_write = write
        ready_at[b] = done_at + (twr if write else 0.0)
        finish[pick] = done_at
        if write:
            writes += 1
            e_rw_total += e_write
        else:
            reads += 1
            e_rw_total += e_read
        now = data_start
        heappush(inflight, done_at)

        # page policy: close the row unless Open (or, for the adaptive
        # policies, unless a pending request still wants it)
        close = close_always
        if close_adaptive:
            for i in buffer:
                if bank_of[i] == b and row_of[i] == row:
                    break
            else:
                close = True
        if close:
            close_at = ready_at[b]
            span = close_at - opened_since[b]
            open_time[b] += span if span > 0.0 else 0.0
            open_row[b] = -1
            # auto-precharge overlaps other banks; only this bank pays tRP
            ready_at[b] = close_at + trp

    end_time = max(finish)
    exec_time = max(end_time, 1e-9)

    # Sums below run left to right on purpose: builtin sum() of floats is
    # compensated from Python 3.12 on, and the result must not depend on
    # the interpreter (tests/data/kernel_golden.json pins it).
    # response queue: in-order release adds queueing delay
    latency_total = 0.0
    if cfg.resp_queue_policy == "Reorder":
        for i in range(n):
            latency = finish[i] - arrival[i]
            latency_total += latency if latency > 0.0 else 0.0
    else:
        release = 0.0
        for i in range(n):
            if finish[i] > release:
                release = finish[i]
            latency = release - arrival[i]
            latency_total += latency if latency > 0.0 else 0.0
    avg_latency = latency_total / n

    # background energy from bank-open residency
    open_total = 0.0
    for b in range(nbanks):
        if open_row[b] >= 0:
            span = end_time - opened_since[b]
            open_time[b] += span if span > 0.0 else 0.0
        open_total += open_time[b]
    open_frac = min(1.0, open_total / exec_time)
    p_bg = energy.p_background_idle + (
        energy.p_background_active - energy.p_background_idle) * open_frac
    background_energy = p_bg * exec_time  # W * ns = nJ
    cmd_energy = e_act_total + e_rw_total + e_refresh_total
    total_energy = cmd_energy + background_energy

    bytes_moved = n * device.line_bytes
    return SimResult(
        avg_latency_ns=avg_latency,
        power_w=total_energy / exec_time,
        energy_uj=total_energy / 1e3,
        exec_time_ns=exec_time,
        bandwidth_gbps=bytes_moved / exec_time,
        row_hits=row_hits,
        row_misses=row_misses,
        row_conflicts=row_conflicts,
        refreshes=n_refreshes,
        reads=reads,
        writes=writes,
        energy_breakdown_nj={
            "activate": e_act_total,
            "read_write": e_rw_total,
            "refresh": e_refresh_total,
            "background": background_energy,
        },
    )
