"""Tests for the seeding unit, DP units, Helix/PARC models, and Table 2."""

import numpy as np
import pytest

from repro.genomics.reference import ReferenceGenome
from repro.hardware.area_power import genpip_table2_budget
from repro.hardware.dp_unit import DpUnit, DpUnitConfig
from repro.hardware.helix import HelixModel
from repro.hardware.parc import ParcModel
from repro.hardware.seeding_unit import InMemorySeedingUnit, SeedingUnitConfig
from repro.mapping.index import MinimizerIndex
from repro.mapping.minimizers import MinimizerConfig
from repro.mapping.seeding import collect_anchor_arrays


@pytest.fixture(scope="module")
def index():
    ref = ReferenceGenome.random(40_000, seed=23)
    return MinimizerIndex.build(ref, MinimizerConfig(k=13, w=10))


@pytest.fixture(scope="module")
def seeding_unit(index):
    return InMemorySeedingUnit(index)


class TestInMemorySeedingUnit:
    def test_functional_equivalence_with_software_index(self, index, seeding_unit):
        """The CAM/RAM path returns exactly the software anchors."""
        chunk = index.reference.fetch(5_000, 5_300)
        hw, stats = seeding_unit.seed_chunk(chunk)
        sw = collect_anchor_arrays(index, chunk, read_offset=0)
        for strand in (1, -1):
            np.testing.assert_array_equal(hw[strand], sw[strand])
        assert stats.n_query_strings > 0

    def test_lookup_equals_index(self, index, seeding_unit):
        key = next(iter(index.keys()))
        hw_entry = seeding_unit.lookup(key)
        sw_entry = index.lookup(key)
        np.testing.assert_array_equal(hw_entry.positions, sw_entry.positions)

    def test_lookup_miss(self, seeding_unit):
        assert seeding_unit.lookup(0xDEAD_BEEF_0BAD) is None

    def test_cam_bank_count(self, index, seeding_unit):
        expected = -(-len(index) // SeedingUnitConfig().cam_rows)
        assert seeding_unit.n_cam_arrays == expected

    def test_costs_scale_with_hits(self, index, seeding_unit):
        genome_chunk = index.reference.fetch(10_000, 10_300)
        junk_chunk = np.random.default_rng(24).integers(0, 4, size=300).astype(np.uint8)
        _, genome_stats = seeding_unit.seed_chunk(genome_chunk)
        _, junk_stats = seeding_unit.seed_chunk(junk_chunk)
        assert genome_stats.n_locations > junk_stats.n_locations
        assert genome_stats.energy_pj > 0
        assert genome_stats.latency_ns > 0


class TestDpUnit:
    def test_chaining_cost_scales(self):
        unit = DpUnit()
        small = unit.chaining_cost(100)
        large = unit.chaining_cost(1_000)
        assert large.latency_ns == pytest.approx(10 * small.latency_ns)
        assert large.energy_pj == pytest.approx(10 * small.energy_pj)

    def test_parallel_units_reduce_latency_not_energy(self):
        unit = DpUnit()
        serial = unit.alignment_cost(100_000, parallel_units=1)
        parallel = unit.alignment_cost(100_000, parallel_units=16)
        assert parallel.latency_ns == pytest.approx(serial.latency_ns / 16)
        assert parallel.energy_pj == pytest.approx(serial.energy_pj)

    def test_parallelism_capped_at_pool(self):
        unit = DpUnit(DpUnitConfig(n_units=8))
        capped = unit.alignment_cost(1_000, parallel_units=100)
        direct = unit.alignment_cost(1_000, parallel_units=8)
        assert capped.latency_ns == pytest.approx(direct.latency_ns)

    def test_validation(self):
        with pytest.raises(ValueError):
            DpUnit().chaining_cost(-1)
        with pytest.raises(ValueError):
            DpUnit().alignment_cost(-1)
        with pytest.raises(ValueError):
            DpUnitConfig(n_units=0)


class TestHelixModel:
    @pytest.fixture(scope="class")
    def helix(self):
        return HelixModel()

    def test_throughput_positive(self, helix):
        throughput = helix.throughput(300)
        assert throughput.chunks_per_second > 0
        assert throughput.bases_per_second == pytest.approx(
            throughput.chunks_per_second * 300
        )

    def test_bigger_chunks_cost_more_energy(self, helix):
        assert (
            helix.throughput(500).chunk_energy_pj > helix.throughput(300).chunk_energy_pj
        )

    def test_throughput_roughly_stable_in_bases(self, helix):
        """Bases/s should be on the same order across chunk sizes."""
        b300 = helix.throughput(300).bases_per_second
        b500 = helix.throughput(500).bases_per_second
        assert 0.3 < b300 / b500 < 3.0

    def test_energy_per_base(self, helix):
        assert helix.energy_per_base_pj(300) > 0

    def test_validation(self, helix):
        with pytest.raises(ValueError):
            helix.throughput(0)
        with pytest.raises(ValueError):
            HelixModel(samples_per_base=0.0)


class TestParcModel:
    def test_read_cost_composition(self):
        parc = ParcModel()
        cost = parc.map_read_cost(n_anchors=500, aligned_bases=9_000)
        assert cost.total_latency_ns == pytest.approx(
            cost.chaining_latency_ns + cost.alignment_latency_ns
        )
        assert cost.energy_pj > 0

    def test_alignment_dominates_for_long_reads(self):
        parc = ParcModel()
        cost = parc.map_read_cost(n_anchors=100, aligned_bases=50_000)
        assert cost.alignment_latency_ns > cost.chaining_latency_ns

    def test_validation(self):
        with pytest.raises(ValueError):
            ParcModel().map_read_cost(10, -1)


class TestTable2Budget:
    @pytest.fixture(scope="class")
    def budget(self):
        return genpip_table2_budget()

    def test_totals_match_paper(self, budget):
        """GenPIP total: 147.2 W, 163.8 mm^2 (Table 2)."""
        assert budget.total_power_w == pytest.approx(147.2, rel=0.01)
        assert budget.total_area_mm2 == pytest.approx(163.8, rel=0.01)

    def test_basecalling_module(self, budget):
        power, area = budget.module_total("basecalling")
        assert power == pytest.approx(27.4, rel=0.01)
        assert area == pytest.approx(49.2, rel=0.01)

    def test_read_mapping_module(self, budget):
        power, area = budget.module_total("read-mapping")
        assert power == pytest.approx(114.5, rel=0.01)
        assert area == pytest.approx(93.1, rel=0.01)

    def test_controller_module(self, budget):
        power, area = budget.module_total("controller")
        assert power == pytest.approx(5.3, rel=0.01)
        assert area == pytest.approx(21.5, rel=0.01)

    def test_read_mapping_is_dominant(self, budget):
        """The paper: read mapping is 56.9% of area, 77.8% of power."""
        power, area = budget.module_total("read-mapping")
        assert power / budget.total_power_w == pytest.approx(0.778, abs=0.01)
        assert area / budget.total_area_mm2 == pytest.approx(0.569, abs=0.01)

    def test_unknown_module(self, budget):
        with pytest.raises(KeyError):
            budget.module_total("gpu")

    def test_rows_cover_all_components(self, budget):
        names = [name for name, *_ in budget.rows()]
        assert "PIM Basecaller" in names
        assert "Seeding" in names
        assert "GenPIP controller" in names
        assert len(names) == 6
