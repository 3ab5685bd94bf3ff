import math

import numpy as np
import pytest

from pdmp_avgctl.flow import (
    FlowSpec,
    PastBoundaryError,
    advance,
    flow_derivative,
    hit_time,
    validate_flow,
)
from pdmp_avgctl.numerics import Table1D


def unit_drift(boundary=(1.0,)):
    return FlowSpec(kind="affine1d", alpha0=1.0, alpha1=0.0, t_max=50.0,
                    lo=0.0, hi=1.0, boundary=np.array(boundary))


def contraction(boundary=(1.0,)):
    return FlowSpec(kind="affine1d", alpha0=0.0, alpha1=-1.0, t_max=50.0,
                    lo=0.0, hi=2.0, boundary=np.array(boundary))


def trivial(t_max=10.0):
    return FlowSpec(kind="trivial", t_max=t_max, lo=0.0, hi=1.0, boundary=np.empty(0))


class TestAdvance:
    def test_zero_time_is_identity(self):
        for flow in (trivial(), unit_drift(), contraction()):
            assert advance(flow, 0.25, 0.0) == 0.25

    def test_exponential_decay_closed_form(self):
        assert advance(contraction(boundary=()), 2.0, math.log(2.0)) == pytest.approx(1.0, abs=1e-14)

    def test_unit_drift(self):
        assert advance(unit_drift(), 0.25, 0.5) == pytest.approx(0.75, abs=1e-14)

    def test_past_boundary_raises(self):
        with pytest.raises(PastBoundaryError):
            advance(unit_drift(), 0.25, 0.76)


class TestHitTime:
    def test_trivial_never_hits(self):
        assert hit_time(trivial(), 0.5) == math.inf

    def test_unit_drift_hits(self):
        assert hit_time(unit_drift(), 0.25) == pytest.approx(0.75, abs=1e-14)

    def test_contraction_away_from_boundary_never_hits(self):
        assert hit_time(contraction(boundary=(1.0,)), 0.5) == math.inf

    def test_contraction_toward_lower_boundary(self):
        flow = FlowSpec(kind="affine1d", alpha0=0.0, alpha1=-1.0, t_max=50.0,
                        lo=0.25, hi=2.0, boundary=np.array([0.25]))
        t = hit_time(flow, 1.0)
        assert t == pytest.approx(math.log(4.0), rel=1e-12)
        assert advance(flow, 1.0, t) == pytest.approx(0.25, abs=1e-12)

    def test_hitting_consistency_on_drift(self):
        flow = unit_drift()
        for x in np.linspace(0.05, 0.95, 7):
            t = hit_time(flow, x)
            assert advance(flow, x, t) == pytest.approx(1.0, abs=1e-12)


class TestSemigroup:
    def test_affine_semigroup_property(self):
        rng = np.random.default_rng(1234)
        for a0, a1 in [(1.0, 0.0), (0.0, -1.0), (0.5, -0.3), (-0.2, 0.1)]:
            flow = FlowSpec(kind="affine1d", alpha0=a0, alpha1=a1, t_max=50.0,
                            lo=-5.0, hi=5.0, boundary=np.empty(0))
            for _ in range(50):
                x = rng.uniform(-1.0, 1.0)
                t, s = rng.uniform(0.0, 2.0, size=2)
                two_step = advance(flow, advance(flow, x, t), s)
                assert abs(two_step - advance(flow, x, t + s)) <= 1e-9

    def test_tabulated_semigroup_property(self):
        pts = np.linspace(0.1, 2.0, 25)
        flow = FlowSpec(kind="tabulated1d", velocity=Table1D(pts, -pts), t_max=50.0,
                        lo=0.1, hi=2.0, boundary=np.empty(0))
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.uniform(0.3, 1.8)
            t, s = rng.uniform(0.0, 1.0, size=2)
            two_step = advance(flow, advance(flow, x, t), s)
            assert abs(two_step - advance(flow, x, t + s)) <= 1e-6

    def test_tabulated_matches_affine_solution(self):
        # velocity table sampling dy/dt = -y: the interpolant integrator should
        # track the true exponential closely on a fine table
        pts = np.linspace(0.05, 2.0, 400)
        flow = FlowSpec(kind="tabulated1d", velocity=Table1D(pts, -pts), t_max=50.0,
                        lo=0.05, hi=2.0, boundary=np.empty(0))
        got = advance(flow, 1.5, 0.8)
        assert got == pytest.approx(1.5 * math.exp(-0.8), abs=1e-6)

    def test_tabulated_hit_time(self):
        pts = np.linspace(0.0, 1.0, 65)
        flow = FlowSpec(kind="tabulated1d", velocity=Table1D(pts, np.ones(65)), t_max=50.0,
                        lo=0.0, hi=1.0, boundary=np.array([1.0]))
        assert hit_time(flow, 0.25) == pytest.approx(0.75, rel=1e-12)


class TestFlowDerivative:
    def test_trivial_flow_gives_zero(self):
        pts = np.linspace(0.0, 1.0, 17)
        h = Table1D(pts, pts**2)
        assert flow_derivative(trivial(), h, 0.5) == 0.0

    def test_quadratic_under_unit_drift(self):
        pts = np.linspace(0.0, 1.0, 33)
        h = Table1D(pts, pts**2)
        assert flow_derivative(unit_drift(), h, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_linear_under_contraction(self):
        pts = np.linspace(0.0, 3.0, 31)
        h = Table1D(pts, pts)
        assert flow_derivative(contraction(boundary=()), h, 2.0) == pytest.approx(-2.0, abs=1e-12)

    def test_array_of_points_takes_the_grid_differences(self):
        # on a grid point: central differences inside and one-sided ones at
        # the ends; between grid points: the difference across the pair
        # around it.  The array call gives each point's scalar value.
        pts = np.linspace(0.0, 1.0, 9) ** 2
        vals = np.exp(pts)
        h = Table1D(pts, vals)
        mid = 0.5 * (pts[:-1] + pts[1:])
        on = np.concatenate(([(vals[1] - vals[0]) / (pts[1] - pts[0])], (vals[2:] - vals[:-2]) / (pts[2:] - pts[:-2]),
                             [(vals[-1] - vals[-2]) / (pts[-1] - pts[-2])]))
        between = (vals[1:] - vals[:-1]) / (pts[1:] - pts[:-1])
        for flow, speed in ((unit_drift(), 1.0), (contraction(boundary=()), -np.concatenate((pts, mid)))):
            got = flow_derivative(flow, h, np.concatenate((pts, mid)))
            assert np.array_equal(got, np.concatenate((on, between)) * speed)
            assert got.tolist() == [flow_derivative(flow, h, float(x)) for x in np.concatenate((pts, mid))]
        assert flow_derivative(trivial(), h, mid).tolist() == [0.0] * mid.size

    def test_second_order_convergence(self):
        # error of the grid-difference derivative of exp(y) should drop ~4x
        # per halving of the grid spacing
        flow = unit_drift(boundary=())
        errs = []
        for n in (17, 33, 65):
            pts = np.linspace(0.0, 1.0, n)
            h = Table1D(pts, np.exp(pts))
            x = pts[n // 2]
            errs.append(abs(flow_derivative(flow, h, x) - math.exp(x)))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 1.9
        assert order2 >= 1.9


class TestValidateFlow:
    def test_sign_change_rejected(self):
        flow = FlowSpec(kind="affine1d", alpha0=1.0, alpha1=-2.0, t_max=50.0,
                        lo=0.0, hi=1.0, boundary=np.empty(0))
        problems = validate_flow(flow)
        assert problems and "sign" in problems[0]

    def test_zero_affine_rejected(self):
        flow = FlowSpec(kind="affine1d", alpha0=0.0, alpha1=0.0, t_max=50.0,
                        lo=0.0, hi=1.0, boundary=np.empty(0))
        assert validate_flow(flow)

    def test_edge_fixed_point_allowed(self):
        flow = FlowSpec(kind="affine1d", alpha0=0.0, alpha1=-1.0, t_max=50.0,
                        lo=0.0, hi=1.0, boundary=np.empty(0))
        assert validate_flow(flow) == []
        assert flow.fixed_point == 0.0
