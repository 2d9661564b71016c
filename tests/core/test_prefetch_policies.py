"""Tests for the prefetch policies (timekeeping, DBCP)."""

import pytest

from repro.cache.block import Frame
from repro.common.config import CacheConfig
from repro.common.types import KB
from repro.core.prefetch.dbcp import DBCPPrefetchPolicy
from repro.core.prefetch.timekeeping import TimekeepingPrefetchPolicy
from repro.sim.simulator import make_simulator
from repro.traces.workloads import build_workload


L1 = CacheConfig(32 * KB, 1, 32, name="L1D")


def frame_with_history(set_index=3, tags=(7, 9), fill=0, hits=()):
    """A frame that has held blocks with the given tag history; the
    last tag is resident."""
    f = Frame(set_index, 0)
    for i, tag in enumerate(tags):
        f.reset_generation((tag << 10) | set_index, tag, fill + i * 100)
    for t in hits:
        f.record_hit(t)
    return f


def block(tag, set_index=3):
    return (tag << 10) | set_index


def teach(table, tag_a, tag_b, set_index, next_tag, lt):
    """Two consistent updates: store then confirm."""
    table.update(tag_a, tag_b, set_index, next_tag, lt)
    table.update(tag_a, tag_b, set_index, next_tag, lt)


class TestTimekeepingPolicy:
    def test_learns_and_predicts_chain(self):
        policy = TimekeepingPrefetchPolicy(L1)
        # Teach the (9, 11) -> 13 entry twice (store + confirm) via two
        # rounds of the miss sequence 11 -> 13 on frames holding 9, 11.
        for now in (300, 600):
            f3 = frame_with_history(tags=(9, 11), hits=(now - 50,))
            policy.on_miss(f3, 3, block(13), pc=0, now=now)
        # Now a miss of 11 onto a frame holding 9 (prev 7) predicts 13.
        f4 = frame_with_history(tags=(7, 9), hits=(150,))
        sched = policy.on_miss(f4, 3, block(11), pc=0, now=800)
        assert sched is not None
        assert sched.target_block == block(13)

    def test_no_prediction_for_invalid_frame(self):
        policy = TimekeepingPrefetchPolicy(L1)
        f = Frame(0, 0)
        assert policy.on_miss(f, 0, block(5, 0), pc=0, now=10) is None

    def test_fire_time_doubles_live_ticks(self):
        policy = TimekeepingPrefetchPolicy(L1, tick_cycles=512)
        # Install an entry with live time 2 ticks for history (9, 11).
        teach(policy.table, 9, 11, 3, 13, 2)
        f = frame_with_history(tags=(7, 9), hits=(150,))
        sched = policy.on_miss(f, 3, block(11), pc=0, now=1000)
        # fire at tick edge after now plus 2*2 ticks
        assert sched.fire_at == ((1000 // 512) + 4 + 1) * 512

    def test_zero_live_time_fires_next_edge(self):
        policy = TimekeepingPrefetchPolicy(L1, tick_cycles=512)
        teach(policy.table, 9, 11, 3, 13, 0)
        f = frame_with_history(tags=(7, 9), hits=(150,))
        sched = policy.on_miss(f, 3, block(11), pc=0, now=1000)
        assert sched.fire_at == 1024  # the very next edge

    def test_saturated_live_time_suppresses_prefetch(self):
        """A predicted live time at the 5-bit counter maximum cannot be
        scheduled (the block lives beyond measurable time): no prefetch,
        so long-lived hot residents are never displaced while live."""
        policy = TimekeepingPrefetchPolicy(L1, tick_cycles=512)
        teach(policy.table, 9, 11, 3, 13, 31)
        f = frame_with_history(tags=(7, 9), hits=(150,))
        assert policy.on_miss(f, 3, block(11), pc=0, now=1000) is None

    def test_chain_rearms_on_first_use_of_prefetched(self):
        policy = TimekeepingPrefetchPolicy(L1)
        teach(policy.table, 11, 13, 3, 15, 1)
        f = frame_with_history(tags=(9, 11))
        f.reset_generation(block(13), 13, 500, prefetched=True)
        f.record_hit(600)  # first demand use
        sched = policy.on_hit(f, 3, now=600)
        assert sched is not None
        assert sched.target_block == block(15)

    def test_on_hit_non_prefetched_returns_none(self):
        policy = TimekeepingPrefetchPolicy(L1)
        f = frame_with_history(tags=(9, 11), hits=(150,))
        assert policy.on_hit(f, 3, 160) is None

    def test_prefetch_fill_updates_table(self):
        policy = TimekeepingPrefetchPolicy(L1)
        for now in (700, 1400):
            f = frame_with_history(tags=(9, 11), hits=(now - 50,))
            policy.on_prefetch_fill(f, 3, block(13), now=now)
        entry = policy.table.lookup(9, 11, 3)
        assert entry is not None
        assert entry[0] == 13

    def test_state_bytes(self):
        assert TimekeepingPrefetchPolicy(L1).state_bytes() == 8 * KB


class TestDBCPPolicy:
    @staticmethod
    def _cycle(policy, frame, tags, hits_per_block, rounds, start=0):
        """Drive a frame through `rounds` repetitions of a tag cycle,
        collecting every ScheduledPrefetch the policy emits."""
        schedules = []
        now = start
        for _ in range(rounds):
            for tag in tags:
                sched = policy.on_miss(frame, 3, block(tag), pc=0x40, now=now)
                if sched is not None:
                    schedules.append(sched)
                frame.reset_generation(block(tag), tag, now)
                for h in range(hits_per_block):
                    now += 10
                    frame.record_hit(now)
                    sched = policy.on_hit(frame, 3, now)
                    if sched is not None:
                        schedules.append(sched)
                now += 100
        return schedules, now

    def test_learns_repeating_miss_cycle(self):
        """The per-frame cycle 9 -> 11 -> 13 repeats: after the
        confirmation pass, DBCP predicts each successor."""
        policy = DBCPPrefetchPolicy(L1)
        f = Frame(3, 0)
        warm, now = self._cycle(policy, f, [9, 11, 13], 1, rounds=3)
        sched, _ = self._cycle(policy, f, [9, 11, 13], 1, rounds=2, start=now)
        assert sched  # predictions flow once confirmed
        targets = {s.target_block for s in sched}
        assert targets <= {block(9), block(11), block(13)}

    def test_death_timing_follows_hit_counts(self):
        """With one hit per generation, prefetches are armed by on_hit
        (reference-count death), not at miss time."""
        policy = DBCPPrefetchPolicy(L1)
        f = Frame(3, 0)
        _, now = self._cycle(policy, f, [9, 11], 1, rounds=4)
        # Next round: the miss itself must not arm (death_hits == 1)...
        sched = policy.on_miss(f, 3, block(9), pc=0x40, now=now)
        assert sched is None
        f.reset_generation(block(9), 9, now)
        # ...but the first hit reaches the historical count and arms.
        f.record_hit(now + 10)
        sched = policy.on_hit(f, 3, now + 10)
        assert sched is not None
        assert sched.target_block == block(11)

    def test_state_bytes_is_2mb(self):
        assert DBCPPrefetchPolicy(L1).state_bytes() == 2 * 1024 * 1024


class _Untouchable:
    """Stands in for a policy structure ``on_hit`` must leave alone."""

    def _refuse(self, *args):
        raise AssertionError("on_hit used policy state at a non-trigger hit")

    __getattr__ = __getitem__ = __setitem__ = __contains__ = _refuse
    __iter__ = __len__ = _refuse


class TestHitTriggerContract:
    """``next_hit_trigger`` names the only hit at which ``on_hit`` acts.

    The batch engine skips every other demand hit, so a policy whose
    ``on_hit`` returns a schedule or changes its state at any other hit
    would make the engines disagree.  Each policy runs on the scalar
    loop (vortex added to the four workloads because DBCP makes no
    prediction on them within 4k accesses); just before every L1 hit
    the trigger is asked for (the frame
    as the batch engine last saw it).  At any other hit ``on_hit`` must
    return None, leave the table counters and DBCP's per-frame state
    as they were, and not touch the table contents or DBCP's
    previous-generation hit counts at all (they are swapped for a
    stand-in that fails on any use).
    """

    @pytest.mark.parametrize("workload", ["gcc", "mcf", "swim", "art", "vortex"])
    @pytest.mark.parametrize("prefetcher", ["timekeeping", "dbcp"])
    def test_on_hit_acts_only_at_the_trigger(self, prefetcher, workload,
                                            monkeypatch):
        sim = make_simulator(prefetcher=prefetcher)
        policy = sim.policy
        table = policy.table
        frames = getattr(policy, "_frames", {})
        l1_tags = sim.l1._tags
        triggers = {}
        calls = {"trigger": 0, "other": 0}

        record_hit = Frame.record_hit

        def record_hit_after_asking(frame, now, store=False):
            if l1_tags.get(frame.block_addr) is frame:
                triggers[frame.frame_key] = policy.next_hit_trigger(
                    frame.frame_key, frame
                )
            record_hit(frame, now, store)

        def state(frame_key):
            st = frames.get(frame_key)
            return (
                table.lookups, table.lookup_hits, table.updates, len(frames),
                None if st is None else (
                    st.signature, st.predicted_block, st.death_hits, st.armed,
                    st.last_pc,
                ),
            )

        on_hit = policy.on_hit

        def checked_on_hit(frame, frame_key, now):
            if triggers.pop(frame_key) == frame.hit_count:
                calls["trigger"] += 1
                return on_hit(frame, frame_key, now)
            calls["other"] += 1
            before = state(frame_key)
            sets, table._sets = table._sets, _Untouchable()
            prev_hits = getattr(policy, "_prev_hits", None)
            if prev_hits is not None:
                policy._prev_hits = _Untouchable()
            try:
                schedule = on_hit(frame, frame_key, now)
            finally:
                table._sets = sets
                if prev_hits is not None:
                    policy._prev_hits = prev_hits
            assert schedule is None
            assert state(frame_key) == before
            return schedule

        monkeypatch.setattr(Frame, "record_hit", record_hit_after_asking)
        policy.on_hit = checked_on_hit
        result = sim.run(build_workload(workload, length=4_000), engine="scalar")
        assert calls["other"] > 0
        if prefetcher == "timekeeping":
            # Its trigger is the first demand use of a prefetched block.
            assert calls["trigger"] == result.prefetch.useful
        elif workload == "vortex":
            # DBCP predicts on vortex within 4k accesses (not on the
            # other four), so its triggers are exercised here.
            assert calls["trigger"] > 0
