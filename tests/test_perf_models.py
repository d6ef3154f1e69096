"""Tests for the cost database, flow-shop simulator, and system models."""

import numpy as np
import pytest

from repro.core import ECOLI_PARAMS, GenPIPConfig, GenPIPPipeline
from repro.mapping import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.perf import (
    DEFAULT_COSTS,
    PipelineWorkload,
    evaluate_all_systems,
    evaluate_system,
    potential_study,
    simulate_flow_shop,
)
from repro.perf.costs import CostDatabase
from repro.perf.pipeline_sim import chunk_pipeline_jobs
from repro.perf.systems import SYSTEM_NAMES, WORKLOAD_KIND


@pytest.fixture(scope="module")
def workloads():
    dataset = generate_dataset(small_profile(ECOLI_LIKE, max_read_length=6_000), scale=0.001, seed=31)
    index = MinimizerIndex.build(dataset.reference)
    cfg = ECOLI_PARAMS
    reports = {
        "conventional": GenPIPPipeline(index, cfg.conventional(), align=False).run(dataset),
        "qsr_only": GenPIPPipeline(
            index, GenPIPConfig(n_qs=cfg.n_qs, enable_cmr=False), align=False
        ).run(dataset),
        "full_er": GenPIPPipeline(index, cfg, align=False).run(dataset),
    }
    return {kind: PipelineWorkload.from_report(r) for kind, r in reports.items()}


class TestCostDatabase:
    def test_defaults_positive(self):
        costs = DEFAULT_COSTS
        assert costs.cpu_basecall_bps < costs.gpu_basecall_bps < costs.helix_basecall_bps
        assert costs.cpu_map_bps < costs.parc_map_bps

    def test_movement_helpers(self):
        costs = DEFAULT_COSTS
        t = costs.movement_time_s(costs.link_bandwidth_bps * 10)
        assert t == pytest.approx(10.0)
        assert costs.movement_energy_j(costs.link_bandwidth_bps) == pytest.approx(
            costs.movement_power_w
        )
        with pytest.raises(ValueError):
            costs.movement_time_s(-1)

    def test_anchor_hours(self):
        """3100 h basecall / 500 h map / 1 h QC on the anchor dataset."""
        costs = DEFAULT_COSTS
        anchor = 273e9
        assert anchor / costs.cpu_basecall_bps / 3600 == pytest.approx(3100, rel=0.01)
        assert anchor / costs.cpu_map_bps / 3600 == pytest.approx(500, rel=0.01)
        assert anchor / costs.cpu_qc_bps / 3600 == pytest.approx(1, rel=0.01)

    def test_movement_volumes(self):
        """3913 GB raw / 546 GB called on the anchor dataset."""
        costs = DEFAULT_COSTS
        assert costs.raw_signal_bytes(273e9) == pytest.approx(3913e9)
        assert costs.called_bytes(273e9) == pytest.approx(546e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostDatabase(cpu_power_w=-1.0)


class TestFlowShop:
    def test_empty(self):
        result = simulate_flow_shop(np.zeros((0, 2)))
        assert result.makespan_s == 0.0

    def test_single_job(self):
        result = simulate_flow_shop(np.array([[2.0, 3.0]]))
        assert result.makespan_s == pytest.approx(5.0)

    def test_pipeline_overlap(self):
        # 10 identical jobs: makespan = fill + bottleneck stage.
        jobs = np.tile([[1.0, 2.0]], (10, 1))
        result = simulate_flow_shop(jobs)
        assert result.makespan_s == pytest.approx(1.0 + 20.0)
        assert result.overlap_gain == pytest.approx(30.0 / 21.0)

    def test_balanced_stages_best_overlap(self):
        balanced = simulate_flow_shop(np.tile([[1.0, 1.0]], (100, 1)))
        skewed = simulate_flow_shop(np.tile([[0.1, 1.9]], (100, 1)))
        assert balanced.overlap_gain > skewed.overlap_gain

    def test_matches_serial_when_one_stage(self):
        jobs = np.array([[1.0], [2.0], [3.0]])
        result = simulate_flow_shop(jobs)
        assert result.makespan_s == pytest.approx(6.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            simulate_flow_shop(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            simulate_flow_shop(np.array([[-1.0, 2.0]]))

    def test_job_builder(self):
        jobs = chunk_pipeline_jobs(
            chunks_per_read=[3, 2],
            seeded_chunks_per_read=[3, 0],
            aligned_per_read=[True, False],
            basecall_s_per_chunk=1.0,
            seedchain_s_per_chunk=0.5,
            align_s_per_chunk=0.2,
        )
        # read 1: 3 chunks + align job; read 2: 2 chunks, no seeding.
        assert jobs.shape == (6, 2)
        np.testing.assert_allclose(jobs[3], [0.0, 0.6])  # align job: 3 * 0.2
        np.testing.assert_allclose(jobs[4], [1.0, 0.0])  # unseeded chunk

    def test_job_builder_validation(self):
        with pytest.raises(ValueError):
            chunk_pipeline_jobs([1], [1], [False], -1.0, 0.5, 0.2)


class TestSystemModels:
    def test_all_systems_evaluated(self, workloads):
        estimates = evaluate_all_systems(workloads)
        assert set(estimates) == set(SYSTEM_NAMES)
        assert all(e.time_s > 0 and e.energy_j > 0 for e in estimates.values())

    def test_headline_ordering(self, workloads):
        """The paper's Fig. 10 ordering: GenPIP > PIM > GPU > CPU."""
        est = evaluate_all_systems(workloads)
        assert est["GenPIP"].time_s < est["PIM"].time_s
        assert est["PIM"].time_s < est["GPU"].time_s
        assert est["GPU"].time_s < est["CPU"].time_s

    def test_cp_always_helps(self, workloads):
        est = evaluate_all_systems(workloads)
        for base, cp in (("CPU", "CPU-CP"), ("GPU", "GPU-CP"), ("PIM", "GenPIP-CP")):
            assert est[cp].time_s < est[base].time_s

    def test_er_stacks_on_cp(self, workloads):
        est = evaluate_all_systems(workloads)
        assert est["GenPIP"].time_s <= est["GenPIP-CP-QSR"].time_s
        assert est["GenPIP-CP-QSR"].time_s <= est["GenPIP-CP"].time_s
        assert est["CPU-GP"].time_s < est["CPU-CP"].time_s
        assert est["GPU-GP"].time_s < est["GPU-CP"].time_s

    def test_headline_bands(self, workloads):
        """Headline factors land in generous bands around the paper's."""
        est = evaluate_all_systems(workloads)
        genpip_vs_cpu = est["GenPIP"].speedup_over(est["CPU"])
        genpip_vs_gpu = est["GenPIP"].speedup_over(est["GPU"])
        genpip_vs_pim = est["GenPIP"].speedup_over(est["PIM"])
        assert 25 < genpip_vs_cpu < 75  # paper: 41.6
        assert 5 < genpip_vs_gpu < 20  # paper: 8.4
        assert 1.1 < genpip_vs_pim < 2.5  # paper: 1.39

    def test_energy_bands(self, workloads):
        est = evaluate_all_systems(workloads)
        e_cpu_gen = est["GenPIP"].energy_reduction_over(est["CPU"])
        e_gpu_cpu = est["CPU"].energy_j / est["GPU"].energy_j
        assert 18 < e_cpu_gen < 60  # paper: 32.8
        assert 1.2 < e_gpu_cpu < 2.2  # paper: ~1.58

    def test_movement_matters_for_decoupled_only(self, workloads):
        est = evaluate_all_systems(workloads)
        assert "movement" in est["CPU"].breakdown
        assert "movement" not in est["PIM"].breakdown
        assert "movement_raw" not in est["GenPIP"].breakdown

    def test_unknown_system(self, workloads):
        with pytest.raises(ValueError):
            evaluate_system("TPU", workloads["conventional"])

    def test_missing_workload_kind(self, workloads):
        with pytest.raises(ValueError):
            evaluate_all_systems({"conventional": workloads["conventional"]})

    def test_workload_kind_map_complete(self):
        assert set(WORKLOAD_KIND) == set(SYSTEM_NAMES)


class TestWorkload:
    def test_counters_consistent(self, workloads):
        w = workloads["full_er"]
        assert w.basecalled_bases <= w.total_bases
        assert w.seeded_bases_cp <= w.basecalled_bases
        assert w.aligned_bases <= w.total_bases
        assert len(w.chunks_per_read) == w.n_reads

    def test_er_reduces_work(self, workloads):
        assert workloads["full_er"].basecalled_bases < workloads["conventional"].basecalled_bases
        assert (
            workloads["qsr_only"].basecalled_bases
            <= workloads["conventional"].basecalled_bases
        )

    def test_scaled(self, workloads):
        w = workloads["conventional"]
        doubled = w.scaled(2.0)
        assert doubled.total_bases == pytest.approx(2 * w.total_bases, rel=0.01)
        assert doubled.chunks_per_read == w.chunks_per_read
        with pytest.raises(ValueError):
            w.scaled(0.0)


class TestPotentialStudy:
    def test_fig4_shape(self, workloads):
        result = potential_study(workloads["conventional"], useless_fraction=0.305)
        speedups = result.speedups
        assert speedups["A"] == 1.0
        # Paper: B=2.74, C=6.12, D=9; generous bands preserve the shape.
        assert 1.8 < speedups["B"] < 4.0
        assert 4.0 < speedups["C"] < 8.5
        assert 6.0 < speedups["D"] < 12.0
        assert speedups["B"] < speedups["C"] < speedups["D"]

    def test_useless_fraction_validation(self, workloads):
        with pytest.raises(ValueError):
            potential_study(workloads["conventional"], useless_fraction=1.5)

    def test_movement_drives_b_to_c(self, workloads):
        result = potential_study(workloads["conventional"], useless_fraction=0.3)
        assert result.time_b_s > result.time_c_s > result.time_d_s
