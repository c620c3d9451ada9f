"""Set-associative cache simulator (direct-mapped is associativity 1).

This is the workhorse baseline: the paper's DM / 2-way / 4-way / 8-way
shared L2 configurations (Table 1, Figure 5, Table 2) are all instances of
:class:`SetAssociativeCache`. Per-ASID statistics come for free because
every access carries its application's ASID, which is how the shared-cache
interference study (Table 1) and the deviation metric are computed.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat

import numpy as np

from repro.caches.line import CacheLine
from repro.caches.replacement import (
    FIFOReplacement,
    LRUReplacement,
    ReplacementPolicy,
    make_replacement_policy,
)
from repro.caches.stats import CacheStats
from repro.common.bitops import ilog2, is_power_of_two
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG
from repro.common.types import Access, AccessResult


class SetAssociativeCache:
    """A classic N-way set-associative cache with pluggable replacement.

    Parameters
    ----------
    size_bytes:
        Total data capacity; must be a power of two.
    associativity:
        Ways per set (1 = direct mapped). Must divide the number of lines.
    line_bytes:
        Line (block) size in bytes; the paper uses 64 B throughout.
    policy:
        Replacement policy name (``"lru"``, ``"fifo"``, ``"random"``) or a
        :class:`ReplacementPolicy` instance.
    rng:
        Deterministic RNG handed to the Random policy when ``policy`` is
        given by name.
    name:
        Label used in reports (e.g. ``"8MB 4way"``).
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        line_bytes: int = 64,
        policy: str | ReplacementPolicy = "lru",
        rng: DeterministicRNG | None = None,
        name: str = "",
    ) -> None:
        if not is_power_of_two(size_bytes):
            raise ConfigError(f"cache size must be a power of two, got {size_bytes}")
        if not is_power_of_two(line_bytes):
            raise ConfigError(f"line size must be a power of two, got {line_bytes}")
        if associativity < 1:
            raise ConfigError(f"associativity must be >= 1, got {associativity}")
        total_lines = size_bytes // line_bytes
        if total_lines == 0 or total_lines % associativity != 0:
            raise ConfigError(
                f"{size_bytes} B / {line_bytes} B lines does not divide into "
                f"{associativity}-way sets"
            )
        num_sets = total_lines // associativity
        if not is_power_of_two(num_sets):
            raise ConfigError(
                f"number of sets ({num_sets}) must be a power of two "
                f"(size {size_bytes}, {associativity}-way, {line_bytes} B lines)"
            )

        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = num_sets
        self.name = name or f"{size_bytes // 1024}KB {associativity}way"
        self.stats = CacheStats()

        if isinstance(policy, ReplacementPolicy):
            self._policy = policy
        else:
            self._policy = make_replacement_policy(policy, rng)

        self._line_shift = ilog2(line_bytes)
        self._set_mask = num_sets - 1
        # Exactly one state representation is live at a time: the
        # per-set ``OrderedDict``s (``_set_list``) that the scalar paths
        # walk, or the per-set/per-way arrays (``_lanes``) that the
        # window kernel works on. Each is built from the other on first
        # use; both ``None`` means an empty cache.
        self._set_list: list[OrderedDict[int, CacheLine]] | None = None
        self._lanes: _Lanes | None = None

    # ------------------------------------------------------------------ API

    @property
    def policy(self) -> ReplacementPolicy:
        return self._policy

    @property
    def _sets(self) -> list[OrderedDict[int, CacheLine]]:
        """The per-set maps, rebuilt from the window kernel's arrays if
        those hold the live state (which they then stop doing)."""
        sets = self._set_list
        if sets is None:
            sets = [OrderedDict() for _ in range(self.num_sets)]
            lanes = self._lanes
            if lanes is not None:
                lanes.unpack_into(sets)
                self._lanes = None
            self._set_list = sets
        return sets

    def _window_lanes(self) -> "_Lanes":
        """The kernel's arrays, built from the per-set maps if those hold
        the live state (which they then stop doing)."""
        lanes = self._lanes
        if lanes is None:
            lanes = _Lanes(self.num_sets, self.associativity)
            if self._set_list is not None:
                lanes.pack_from(self._set_list)
                self._set_list = None
            self._lanes = lanes
        return lanes

    def block_of(self, address: int) -> int:
        """Block number for a byte address."""
        return address >> self._line_shift

    def access(self, access: Access) -> AccessResult:
        """Simulate one memory reference given as an :class:`Access`."""
        return self.access_block(
            access.address >> self._line_shift, access.asid, access.is_write
        )

    def access_block(self, block: int, asid: int = 0, write: bool = False) -> AccessResult:
        """Fast-path access by pre-computed block number.

        Bulk drivers use this to avoid constructing an :class:`Access`
        object per reference.
        """
        cache_set = self._sets[block & self._set_mask]
        line = cache_set.get(block)
        if line is not None:
            self.stats.record_access(asid, hit=True)
            self._policy.touch(cache_set, block)
            if write:
                line.dirty = True
            return AccessResult(hit=True)

        self.stats.record_access(asid, hit=False)
        evicted_block: int | None = None
        writeback = False
        if len(cache_set) >= self.associativity:
            evicted_block = self._policy.victim(cache_set)
            victim_line = cache_set.pop(evicted_block)
            writeback = victim_line.dirty
            self.stats.record_eviction(victim_line.asid, writeback)
        cache_set[block] = CacheLine(block=block, asid=asid, dirty=write)
        return AccessResult(hit=False, evicted_block=evicted_block, writeback=writeback)

    def access_many(self, blocks, asids=0, writes=False) -> int:
        """Batched fast path mirroring the molecular engine's contract.

        Streams a whole reference array with the per-ASID stat counters
        resolved once per ASID run instead of per access, and without
        constructing an :class:`AccessResult` per reference. Stats are
        byte-identical to calling :meth:`access_block` per element
        (``tests/test_prop_batched.py`` checks the equivalence).
        Returns the number of accesses simulated.
        """
        if isinstance(blocks, np.ndarray):
            blocks = blocks.tolist()
        n = len(blocks)
        asid_iter = (
            asids.tolist() if isinstance(asids, np.ndarray)
            else asids if isinstance(asids, (list, tuple))
            else repeat(asids)
        )
        write_iter = (
            writes.tolist() if isinstance(writes, np.ndarray)
            else writes if isinstance(writes, (list, tuple))
            else repeat(writes)
        )
        stats = self.stats
        tot = stats.total
        wtot = stats.window_total
        sets = self._sets
        mask = self._set_mask
        policy = self._policy
        touch = policy.touch
        associativity = self.associativity
        counters_for = stats.counters_for
        cur_asid: int | None = None
        tc = wc = None
        for block, asid, write in zip(blocks, asid_iter, write_iter):
            if asid != cur_asid:
                tc, wc = counters_for(asid)
                cur_asid = asid
            cache_set = sets[block & mask]
            line = cache_set.get(block)
            tot.accesses += 1
            wtot.accesses += 1
            tc.accesses += 1
            wc.accesses += 1
            if line is not None:
                tot.hits += 1
                wtot.hits += 1
                tc.hits += 1
                wc.hits += 1
                touch(cache_set, block)
                if write:
                    line.dirty = True
                continue
            if len(cache_set) >= associativity:
                evicted_block = policy.victim(cache_set)
                victim_line = cache_set.pop(evicted_block)
                stats.record_eviction(victim_line.asid, victim_line.dirty)
            cache_set[block] = CacheLine(block=block, asid=asid, dirty=write)
        return n

    def access_session(self) -> "_SetAssocSession":
        """Allocation-free per-access session (``access(...) -> bool``).

        The set-associative twin of the molecular cache's session: the
        same stats updates as :meth:`access_block` without the
        ``AccessResult``, for feedback drivers that interleave
        applications one reference at a time.

        Under LRU and FIFO the session also offers the window methods
        ``probe_window``/``open_window`` (see :class:`_WindowSession`)
        that :class:`~repro.sim.cmp.CMPRunner` drives in place of
        per-access calls. Random replacement draws its RNG once per miss
        in global order, so it keeps the per-access session only.
        """
        if type(self._policy) in (LRUReplacement, FIFOReplacement):
            return _WindowSession(self)
        return _SetAssocSession(self)

    def run(self, blocks, asids=None, writes=None) -> CacheStats:
        """Feed an iterable of block numbers through the cache.

        ``asids``/``writes`` are optional parallel iterables; scalars are
        broadcast. Delegates to :meth:`access_many` (byte-identical to
        the scalar loop) after materialising any lazy iterables. Returns
        :attr:`stats` for convenience.
        """
        if asids is None:
            asids = 0
        if writes is None:
            writes = False
        if not isinstance(blocks, (list, tuple, np.ndarray)):
            blocks = list(blocks)
        if not isinstance(asids, (int, list, tuple, np.ndarray)):
            asids = list(asids)
        if not isinstance(writes, (bool, list, tuple, np.ndarray)):
            writes = list(writes)
        self.access_many(blocks, asids, writes)
        return self.stats

    # --------------------------------------------------------- introspection

    def contains_block(self, block: int) -> bool:
        """True if the block is currently resident (no state update)."""
        return block in self._sets[block & self._set_mask]

    def iter_sets(self):
        """Iterate the sets in index order (read-only audit hook).

        The audit subsystem (:mod:`repro.audit.invariants`) walks every
        set to check structural invariants; the dispatch there keys off
        this method's presence.
        """
        return iter(self._sets)

    def resident_blocks(self) -> list[int]:
        """All resident block numbers (test/diagnostic helper)."""
        resident: list[int] = []
        for cache_set in self._sets:
            resident.extend(cache_set.keys())
        return resident

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)

    def occupancy_by_asid(self) -> dict[int, int]:
        """Resident line count per owning ASID (shared-cache diagnostics)."""
        counts: dict[int, int] = {}
        for cache_set in self._sets:
            for line in cache_set.values():
                counts[line.asid] = counts.get(line.asid, 0) + 1
        return counts

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = 0
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.dirty:
                    dirty += 1
            cache_set.clear()
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}, "
            f"assoc={self.associativity}, line={self.line_bytes}, "
            f"policy={self._policy.name})"
        )


class _SetAssocSession:
    """Per-access fast path bound to one :class:`SetAssociativeCache`."""

    __slots__ = ("_cache", "_counters")

    def __init__(self, cache: SetAssociativeCache) -> None:
        self._cache = cache
        # (cumulative, window) counter pairs per ASID. Valid for the
        # session's lifetime: set-associative windows are only reset by
        # external callers, and the contract (as for the molecular
        # session) is that stats are not reset while a session is live.
        self._counters: dict[int, tuple] = {}

    def access(self, block: int, asid: int = 0, write: bool = False) -> bool:
        cache = self._cache
        stats = cache.stats
        pair = self._counters.get(asid)
        if pair is None:
            pair = stats.counters_for(asid)
            self._counters[asid] = pair
        tc, wc = pair
        tot = stats.total
        wtot = stats.window_total
        cache_set = cache._sets[block & cache._set_mask]
        line = cache_set.get(block)
        tot.accesses += 1
        wtot.accesses += 1
        tc.accesses += 1
        wc.accesses += 1
        if line is not None:
            tot.hits += 1
            wtot.hits += 1
            tc.hits += 1
            wc.hits += 1
            cache._policy.touch(cache_set, block)
            if write:
                line.dirty = True
            return True
        if len(cache_set) >= cache.associativity:
            evicted_block = cache._policy.victim(cache_set)
            victim_line = cache_set.pop(evicted_block)
            stats.record_eviction(victim_line.asid, victim_line.dirty)
        cache_set[block] = CacheLine(block=block, asid=asid, dirty=write)
        return False


#: Tag of an empty way; no block number equals it.
_EMPTY = np.iinfo(np.int64).min
#: Order code of a way whose tag matches (plus the way's index): below
#: every stored code, so one ``min`` over a set's ways finds a hit first.
_MATCH = -(1 << 62)
#: A kernel round with fewer sets than this ends the vector rounds; the
#: window's remaining references then run as scalar code.
_SCALAR_TAIL = 16


class _Lanes:
    """Cache state as ``[ways, sets]`` arrays, for the window kernel.

    ``order`` holds ``stamp * ways + way``. Stamps rank a set's lines as
    its ``OrderedDict`` does (oldest first) and an empty way's stamp is
    -1, so the smallest code of a set names the way to fill next (empty
    ways before the LRU/FIFO victim), and its low bits name that way.
    ``meta`` holds ``owner << 1 | dirty``. ``clock`` is the next stamp.
    """

    __slots__ = ("tag", "order", "meta", "clock")

    def __init__(self, num_sets: int, ways: int) -> None:
        self.tag = np.full((ways, num_sets), _EMPTY, dtype=np.int64)
        self.order = np.repeat(
            np.arange(-ways, 0, dtype=np.int64)[:, None], num_sets, axis=1
        )
        self.meta = np.zeros((ways, num_sets), dtype=np.int64)
        self.clock = ways

    def pack_from(self, sets: list[OrderedDict[int, CacheLine]]) -> None:
        cells: list[tuple[int, int, int, int]] = [
            (way, index, block, line.asid << 1 | line.dirty)
            for index, cache_set in enumerate(sets)
            for way, (block, line) in enumerate(cache_set.items())
        ]
        if not cells:
            return
        ways, rows, blocks, meta = (np.array(c, dtype=np.int64) for c in zip(*cells))
        self.tag[ways, rows] = blocks
        self.order[ways, rows] = ways * len(self.tag) + ways
        self.meta[ways, rows] = meta

    def unpack_into(self, sets: list[OrderedDict[int, CacheLine]]) -> None:
        ways, rows = np.nonzero(self.order >= 0)
        by_age = np.lexsort((self.order[ways, rows], rows))
        ways = ways[by_age]
        rows = rows[by_age]
        for index, block, meta in zip(
            rows.tolist(), self.tag[ways, rows].tolist(), self.meta[ways, rows].tolist()
        ):
            sets[index][block] = CacheLine(
                block=block, asid=meta >> 1, dirty=bool(meta & 1)
            )


class _WindowSession(_SetAssocSession):
    """The per-access session plus the window kernel (LRU and FIFO).

    A driver opens a window over candidate references
    (:meth:`open_window`), orders some of them by predicted issue time,
    and asks the window to replay that order (:meth:`_Window.replay`).
    ``windows``, ``replays`` and ``cuts`` count the windows opened, their
    replays, and the windows committed only up to a misprediction.
    """

    __slots__ = ("windows", "replays", "cuts")

    def __init__(self, cache: SetAssociativeCache) -> None:
        super().__init__(cache)
        self.windows = 0
        self.replays = 0
        self.cuts = 0

    def probe_window(self, blocks: np.ndarray) -> np.ndarray:
        """Which of ``blocks`` are resident now (no state update)."""
        cache = self._cache
        tags = np.take(cache._window_lanes().tag, blocks & cache._set_mask, axis=1)
        return (tags == blocks).any(axis=0)

    def open_window(
        self, blocks: np.ndarray, asids: np.ndarray, writes: np.ndarray
    ) -> "_Window":
        """A window over these candidate references (parallel arrays)."""
        self.windows += 1
        return _Window(self, blocks, asids, writes)


class _Window:
    """Candidate references, replayed in the orders a driver proposes.

    A replay simulates the ordered references on copies of the touched
    sets' columns, exactly as the per-access path would. Each set's
    outcome depends only on the sequence of references it receives, so a
    later replay of a re-ordered window re-simulates only the sets whose
    sequence changed and reuses the rest. Stamps are the window
    positions of the replay that simulated the set; order within a set
    is all they encode, so reused stamps stay valid. The window is spent
    once it commits.
    """

    __slots__ = (
        "_session", "_lanes", "_blocks", "_asids", "_writes", "_sets",
        "_rank", "_hits", "_plan", "_span",
    )

    def __init__(self, session: _WindowSession, blocks, asids, writes) -> None:
        cache = session._cache
        self._session = session
        self._lanes = cache._window_lanes()
        self._blocks = blocks
        self._asids = asids
        self._writes = writes
        self._sets = blocks & cache._set_mask
        #: Each candidate's rank within its set in the last replay (-1:
        #: not replayed), its outcome, and the per-set results.
        self._rank = np.full(len(blocks), -1, dtype=np.int64)
        self._hits = np.ones(len(blocks), dtype=np.bool_)
        self._plan = None
        self._span = 0

    def replay(
        self, order: np.ndarray, predicted: np.ndarray, cut: bool = False
    ) -> tuple[int, np.ndarray]:
        """Simulate the candidates ``order`` names, in that order.

        Returns ``(committed, hits)``, ``hits`` being every reference's
        actual outcome. If all of them equal ``predicted``, the whole
        order is committed (cache state and statistics, as the
        per-access path leaves them). Otherwise nothing is committed,
        unless ``cut`` is set: then exactly the prefix up to and
        including the first misprediction is.
        """
        session = self._session
        session.replays += 1
        hits = self._run(order)
        wrong = hits != predicted
        if wrong.any():
            if not cut:
                return 0, hits
            session.cuts += 1
            order = order[: int(wrong.argmax()) + 1]
            self._run(order)
        self._commit(order)
        return len(order), hits

    def _run(self, order: np.ndarray) -> np.ndarray:
        n = len(order)
        sets = self._sets
        # Sorting (set, position) keys is a stable sort by set.
        bits = n.bit_length()
        key = np.sort((sets[order] << bits) | np.arange(n))
        positions = key & ((1 << bits) - 1)
        sorted_sets = key >> bits
        new_set = np.empty(n, dtype=np.bool_)
        new_set[0] = True
        np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=new_set[1:])
        set_starts = np.flatnonzero(new_set)
        rank = np.arange(n) - set_starts[np.cumsum(new_set) - 1]
        cands = order[positions]
        ranks = np.full(len(sets), -1, dtype=np.int64)
        ranks[cands] = rank
        plan = self._plan
        if plan is not None:
            # Keep the sets whose reference sequence is unchanged.
            changed = np.zeros(self._session._cache.num_sets, dtype=np.bool_)
            changed[sets[ranks != self._rank]] = True
            redo = changed[sorted_sets]
            positions = positions[redo]
            cands = cands[redo]
            touched, tag, code, meta, ev_cands, ev_meta = plan
            keep = ~changed[touched]
            keep_ev = ~changed[sets[ev_cands]]
            plan = (
                touched[keep], tag[:, keep], code[:, keep], meta[:, keep],
                ev_cands[keep_ev], ev_meta[keep_ev],
            )
        self._rank = ranks
        self._span = max(self._span, n)
        if len(cands):
            hits, *new = self._simulate(cands, positions)
            self._hits[cands] = hits
            if plan is not None:
                new = [np.concatenate(pair, axis=-1) for pair in zip(plan, new)]
            plan = tuple(new)
        self._plan = plan
        return self._hits[order]

    def _simulate(self, cands: np.ndarray, positions: np.ndarray):
        """Simulate candidates sorted by (set, window position).

        Back-to-back references to one block collapse into a run whose
        head alone can miss. Run heads then go in rounds by their rank
        within the set: a round touches each set at most once, so it
        vectorises. Returns the candidates' outcomes and the per-set
        results: touched sets, their ``[ways, sets]`` columns, and each
        eviction's candidate and victim ``meta``.
        """
        lanes = self._lanes
        cache = self._session._cache
        ways = cache.associativity
        n = len(cands)
        blocks = self._blocks[cands]
        head = np.empty(n, dtype=np.bool_)
        head[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        heads = len(starts)
        run_writes = np.logical_or.reduceat(self._writes[cands], starts)
        head_sets = self._sets[cands[starts]]
        new_set = np.empty(heads, dtype=np.bool_)
        new_set[0] = True
        np.not_equal(head_sets[1:], head_sets[:-1], out=new_set[1:])
        set_starts = np.flatnonzero(new_set)
        touched = head_sets[set_starts]
        row = np.cumsum(new_set) - 1
        rank = np.arange(heads) - set_starts[row]
        lru = type(cache._policy) is LRUReplacement

        # Heads in round order: by rank, then by set.
        head_bits = heads.bit_length()
        perm = np.sort((rank << head_bits) | np.arange(heads)) & ((1 << head_bits) - 1)
        rows = row[perm]
        head_at = starts[perm]
        head_blocks = blocks[head_at]
        # A run is stamped with its head's position: no other reference
        # to the set falls inside a run, so this orders the set's lines
        # as stamping each reference would.
        fill = (lanes.clock + positions[head_at]) * ways
        owner = self._asids[cands[head_at]] << 1
        run_writes = run_writes[perm]
        tag = np.take(lanes.tag, touched, axis=1)
        code = np.take(lanes.order, touched, axis=1)
        meta = np.take(lanes.meta, touched, axis=1)
        tag_f = tag.reshape(-1)
        code_f = code.reshape(-1)
        meta_f = meta.reshape(-1)
        width = len(touched)
        match_code = _MATCH + np.arange(ways)[:, None]
        head_hit = np.empty(heads, dtype=np.bool_)
        evicts = np.empty(heads, dtype=np.bool_)
        victim = np.empty(heads, dtype=np.int64)

        lo = 0
        for size in np.bincount(rank).tolist():
            if size < _SCALAR_TAIL:
                break
            hi = lo + size
            r = rows[lo:hi]
            b = head_blocks[lo:hi]
            if ways == 1:
                way = 0
                flat = r
                hit = tag_f[r] == b
                evicts[lo:hi] = ~hit & (code_f[r] >= 0)
            else:
                pick = np.where(
                    np.take(tag, r, axis=1) == b, match_code, np.take(code, r, axis=1)
                ).min(axis=0)
                hit = pick < -ways
                evicts[lo:hi] = pick >= 0
                way = pick & (ways - 1)
                flat = way * width + r
            old = meta_f[flat]
            victim[lo:hi] = old
            head_hit[lo:hi] = hit
            tag_f[flat] = b
            if lru:
                code_f[flat] = fill[lo:hi] + way
            else:
                code_f[flat] = np.where(hit, code_f[flat], fill[lo:hi] + way)
            meta_f[flat] = np.where(hit, old, owner[lo:hi]) | run_writes[lo:hi]
            lo = hi
        if lo < heads:
            _scalar_tail(
                lo, rows, head_blocks, fill, owner, run_writes,
                tag, code, meta, head_hit, evicts, victim, lru,
            )

        hits = np.ones(n, dtype=np.bool_)
        hits[head_at] = head_hit
        return (
            hits, touched, tag, code, meta,
            cands[head_at[evicts]], victim[evicts],
        )

    def _commit(self, order: np.ndarray) -> None:
        touched, tag, code, meta, ev_cands, ev_meta = self._plan
        lanes = self._lanes
        cells = (np.arange(len(tag))[:, None] * lanes.tag.shape[1] + touched).reshape(-1)
        lanes.tag.reshape(-1)[cells] = tag.reshape(-1)
        lanes.order.reshape(-1)[cells] = code.reshape(-1)
        lanes.meta.reshape(-1)[cells] = meta.reshape(-1)
        lanes.clock += self._span
        self._plan = None

        stats = self._session._cache.stats
        asids = self._asids[order]
        ids, accesses, hit_counts = _tally(asids, self._hits[order])
        total_hits = sum(hit_counts)
        for tot in (stats.total, stats.window_total):
            tot.accesses += len(asids)
            tot.hits += total_hits
        owners = evictions = writebacks = []
        if len(ev_meta):
            owners, evictions, writebacks = _tally(ev_meta >> 1, (ev_meta & 1) == 1)
        # Per-ASID tables gain entries in the order the per-access path
        # would create them: at an ASID's first access, or at the first
        # eviction of a line it owns (after that reference's access).
        tables = (stats.per_asid, stats.window_per_asid)
        if any(a not in t for t in tables for a in (*ids, *owners)):
            position = np.empty(len(self._sets), dtype=np.int64)
            position[order] = np.arange(len(order))
            events = [(2 * int(np.argmax(asids == a)), a) for a in ids]
            ev_pos = position[ev_cands]
            events += [
                (2 * int(ev_pos[ev_meta >> 1 == o].min()) + 1, o) for o in owners
            ]
            for _key, asid in sorted(events):
                stats.counters_for(asid)
        for asid, count, hit_count in zip(ids, accesses, hit_counts):
            for table in tables:
                counters = table[asid]
                counters.accesses += count
                counters.hits += hit_count
        for asid, count, dirty in zip(owners, evictions, writebacks):
            for counters in (stats.total, stats.window_total, *(t[asid] for t in tables)):
                counters.evictions += count
                counters.writebacks += dirty


def _tally(keys: np.ndarray, flags: np.ndarray) -> tuple[list, list, list]:
    """Distinct ``keys`` (ascending) with their counts and flagged counts."""
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span <= 2 * len(keys):
        # Dense keys (ASIDs are small): count without sorting.
        offset = keys - low
        counts = np.bincount(offset, minlength=span)
        ids = np.flatnonzero(counts)
        return (
            (ids + low).tolist(),
            counts[ids].tolist(),
            np.bincount(offset[flags], minlength=span)[ids].tolist(),
        )
    ids = np.unique(keys)
    code = np.searchsorted(ids, keys)
    return (
        ids.tolist(),
        np.bincount(code, minlength=len(ids)).tolist(),
        np.bincount(code[flags], minlength=len(ids)).tolist(),
    )


def _scalar_tail(
    lo, rows, head_blocks, fill, owner, run_writes,
    tag, code, meta, head_hit, evicts, victim, lru,
) -> None:
    """Finish the run heads from ``lo`` on (few sets, many ranks) in Python."""
    ways = len(tag)
    local = rows[lo:].tolist()
    slot = {r: i for i, r in enumerate(dict.fromkeys(local))}
    tail_rows = np.fromiter(slot, dtype=np.int64, count=len(slot))
    tags = tag[:, tail_rows].T.tolist()
    codes = code[:, tail_rows].T.tolist()
    metas = meta[:, tail_rows].T.tolist()
    hit_out = []
    evict_out = []
    victim_out = []
    for r, b, f, o, w in zip(
        local,
        head_blocks[lo:].tolist(),
        fill[lo:].tolist(),
        owner[lo:].tolist(),
        run_writes[lo:].tolist(),
    ):
        j = slot[r]
        t = tags[j]
        c = codes[j]
        m = metas[j]
        if b in t:
            way = t.index(b)
            hit_out.append(True)
            evict_out.append(False)
            victim_out.append(m[way])
            if lru:
                c[way] = f + way
            m[way] |= w
            continue
        pick = min(c)
        way = pick % ways
        hit_out.append(False)
        evict_out.append(pick >= 0)
        victim_out.append(m[way])
        t[way] = b
        c[way] = f + way
        m[way] = o | w
    head_hit[lo:] = hit_out
    evicts[lo:] = evict_out
    victim[lo:] = victim_out
    tag[:, tail_rows] = np.array(tags, dtype=np.int64).T
    code[:, tail_rows] = np.array(codes, dtype=np.int64).T
    meta[:, tail_rows] = np.array(metas, dtype=np.int64).T
