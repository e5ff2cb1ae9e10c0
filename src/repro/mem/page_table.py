"""A four-level radix page table over 48-bit virtual addresses.

Matches the Intel layout the paper's unified page table rides on: four
levels of 512-entry tables indexed by 9-bit slices of the virtual page
number. Tables are materialized lazily. A one-entry leaf cache makes the
sequential walks that dominate paging workloads cheap.

All methods are keyed by *virtual page number* (``va >> 12``); byte-address
plumbing lives in :mod:`repro.mem.vm`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

_LEVEL_BITS = 9
_LEVEL_MASK = (1 << _LEVEL_BITS) - 1
_VPN_BITS = 36  # 48-bit VA, 4 KiB pages

# Mirrors of repro.mem.pte's bit layout (kept literal so this module stays
# dependency-free): present = bit 0, dirty = bit 6.
_PTE_PRESENT = 1 << 0
_PRESENT_DIRTY = (1 << 0) | (1 << 6)


class PageTable:
    """Sparse 4-level radix tree of integer PTEs.

    Besides the mapping itself, two aggregates are maintained exactly on
    every mutation, for O(1) "is there anything to do?" checks by the
    page manager's background passes:

    * :attr:`dirty_vpns` — the VPNs whose PTEs are currently present
      *and* dirty (anywhere in the table);
    * :attr:`unmap_epoch` — bumped each time a present PTE is replaced
      by a non-present one (eviction, munmap, madvise), i.e. each event
      that can leave a stale entry in an external LRU list.
    """

    __slots__ = ("_root", "_leaf_cache_key", "_leaf_cache", "leaf_tables",
                 "dirty_vpns", "unmap_epoch")

    def __init__(self) -> None:
        self._root: Dict[int, Dict] = {}
        self._leaf_cache_key = -1
        self._leaf_cache: Dict[int, int] = {}
        #: Count of materialized leaf tables, for footprint reporting.
        self.leaf_tables = 0
        #: VPNs of present PTEs with the dirty bit set, maintained exactly.
        self.dirty_vpns: set = set()
        #: Present -> non-present transition counter.
        self.unmap_epoch = 0

    # -- walking -----------------------------------------------------------

    def _leaf_for(self, vpn: int, create: bool) -> Dict[int, int]:
        """Return the leaf table covering ``vpn`` (possibly empty dict)."""
        key = vpn >> _LEVEL_BITS
        if key == self._leaf_cache_key:
            return self._leaf_cache
        node = self._root
        for shift in (_VPN_BITS - _LEVEL_BITS,
                      _VPN_BITS - 2 * _LEVEL_BITS,
                      _VPN_BITS - 3 * _LEVEL_BITS):
            index = (vpn >> shift) & _LEVEL_MASK
            child = node.get(index)
            if child is None:
                if not create:
                    # Do not cache: this empty dict is not linked into the
                    # tree, and caching it would orphan later set() writes.
                    return {}
                child = {}
                node[index] = child
                if shift == _VPN_BITS - 3 * _LEVEL_BITS:
                    self.leaf_tables += 1
            node = child
        self._leaf_cache_key = key
        self._leaf_cache = node
        return node

    # -- access -------------------------------------------------------------

    def get(self, vpn: int) -> int:
        """The PTE for ``vpn`` (0 = invalid/unmapped)."""
        # The leaf-cache hit is served inline: nearly every lookup of a
        # paging workload lands in the leaf of the previous one.
        if vpn >> _LEVEL_BITS == self._leaf_cache_key:
            return self._leaf_cache.get(vpn & _LEVEL_MASK, 0)
        return self._leaf_for(vpn, create=False).get(vpn & _LEVEL_MASK, 0)

    def set(self, vpn: int, pte: int) -> None:
        """Install ``pte`` for ``vpn`` (0 clears the entry).

        Maintains :attr:`dirty_vpns` and :attr:`unmap_epoch` on a change.
        """
        if vpn >> _LEVEL_BITS == self._leaf_cache_key:
            leaf = self._leaf_cache
        else:
            leaf = self._leaf_for(vpn, create=True)
        index = vpn & _LEVEL_MASK
        old = leaf.get(index, 0)
        if old == pte:
            return
        if pte:
            leaf[index] = pte
        else:
            del leaf[index]
        old_pd = old & _PRESENT_DIRTY == _PRESENT_DIRTY
        if old_pd != (pte & _PRESENT_DIRTY == _PRESENT_DIRTY):
            if old_pd:
                self.dirty_vpns.discard(vpn)
            else:
                self.dirty_vpns.add(vpn)
        if old & _PTE_PRESENT and not pte & _PTE_PRESENT:
            self.unmap_epoch += 1

    def update(self, vpn: int, old: int, new: int) -> bool:
        """Compare-and-set; models the atomic PTE transitions of §4.2.

        Returns False (and changes nothing) if the current PTE is not
        ``old`` — e.g. another core already flipped REMOTE to FETCHING.
        """
        if self._leaf_for(vpn, create=True).get(vpn & _LEVEL_MASK, 0) != old:
            return False
        self.set(vpn, new)
        return True

    def entries(self) -> Iterator[Tuple[int, int]]:
        """Iterate all ``(vpn, pte)`` pairs with non-zero PTEs."""
        for i1, l2 in self._root.items():
            for i2, l3 in l2.items():
                for i3, leaf in l3.items():
                    base = ((i1 << _LEVEL_BITS | i2) << _LEVEL_BITS | i3) << _LEVEL_BITS
                    for i4, pte in leaf.items():
                        yield base | i4, pte
