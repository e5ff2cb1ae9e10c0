"""Unit tests for the address space and remote backing."""

import pytest

from repro.common.errors import InvalidAddressError
from repro.common.units import MIB, PAGE_SIZE
from repro.mem.addrspace import AddressSpace
from repro.mem.remote import MemoryNode


@pytest.fixture()
def space():
    return AddressSpace(MemoryNode(16 * MIB))


class TestRegions:
    def test_mmap_page_aligned(self, space):
        region = space.mmap(100)
        assert region.base % PAGE_SIZE == 0
        assert region.size == PAGE_SIZE

    def test_regions_disjoint_with_guard(self, space):
        a = space.mmap(PAGE_SIZE)
        b = space.mmap(PAGE_SIZE)
        assert b.base >= a.end + PAGE_SIZE

    def test_region_lookup(self, space):
        region = space.mmap(2 * PAGE_SIZE, name="heap")
        assert space.region_for(region.base) is region
        assert space.region_for(region.end - 1) is region
        with pytest.raises(InvalidAddressError):
            space.region_for(region.end)  # guard page

    def test_unmapped_address_rejected(self, space):
        with pytest.raises(InvalidAddressError):
            space.region_for(0x10)

    def test_zero_size_rejected(self, space):
        with pytest.raises(ValueError):
            space.mmap(0)

    def test_munmap(self, space):
        region = space.mmap(PAGE_SIZE)
        space.munmap(region)
        with pytest.raises(InvalidAddressError):
            space.region_for(region.base)

    def test_region_lookup_by_bisection(self, space):
        regions = [space.mmap((i + 1) * PAGE_SIZE, name=f"r{i}")
                   for i in range(5)]
        for region in regions:
            assert space.region_for(region.base) is region
            assert space.region_for(region.end - 1) is region
            with pytest.raises(InvalidAddressError):
                space.region_for(region.end)  # guard page
        with pytest.raises(InvalidAddressError):
            space.region_for(regions[0].base - 1)
        middle = regions[2]
        space.munmap(middle)
        for addr in (middle.base, middle.end - 1):
            with pytest.raises(InvalidAddressError):
                space.region_for(addr)
        for region in regions[:2] + regions[3:]:
            assert space.region_for(region.base) is region
            assert space.region_for(region.end - 1) is region
        late = space.mmap(PAGE_SIZE, name="late")
        assert late.base > regions[-1].end
        assert space.region_for(late.base) is late
        assert space.region_for(regions[-1].base) is regions[-1]

    def test_ddc_requires_node(self):
        space = AddressSpace(None)
        with pytest.raises(ValueError):
            space.mmap(PAGE_SIZE, ddc=True)
        region = space.mmap(PAGE_SIZE, ddc=False)
        assert not region.ddc


class TestRemoteBacking:
    def test_lazy_slot_allocation(self, space):
        region = space.mmap(PAGE_SIZE)
        vpn = region.base >> 12
        assert not space.has_remote_backing(vpn)
        pfn = space.remote_pfn_for(vpn)
        assert space.has_remote_backing(vpn)
        assert space.remote_pfn_for(vpn) == pfn  # stable

    def test_distinct_pages_distinct_slots(self, space):
        region = space.mmap(2 * PAGE_SIZE)
        vpn = region.base >> 12
        assert space.remote_offset_for(vpn) != space.remote_offset_for(vpn + 1)

    def test_release_remote(self, space):
        region = space.mmap(PAGE_SIZE)
        vpn = region.base >> 12
        space.remote_pfn_for(vpn)
        space.release_remote(vpn)
        assert not space.has_remote_backing(vpn)

    def test_release_unbacked_is_noop(self, space):
        space.release_remote(12345)
