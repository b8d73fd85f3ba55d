import itertools
import re
from fractions import Fraction as F

import pytest

from contlog.connective import identity, neg, table
from contlog.errors import CapacityError, SpaceMismatch, ValidationError
from contlog.formula import Relation, parse, signature
from contlog.hyperspace import (
    HyperSpace,
    OpenRegion,
    SubsetNet,
    ball,
    compact,
    decode_subset,
    encode_subset,
    hausdorff,
    hyper,
    inf_theta,
    lift,
    nearest_indicator,
    sup_theta,
    urysohn_separator,
    vietoris_member,
    vietoris_slack,
)
from contlog.semantics import evaluate, structure
from contlog.serialize import space_to_json, structure_to_json
from contlog.valuespace import make_finite, make_interval, point

B = make_interval(0, 1, F(1, 2), label="halves")  # net {0, 1/2, 1}
H = hyper(B)


class TestHyperSpace:
    def test_net_is_nonempty_subsets(self):
        assert len(H.net) == 2 ** 3 - 1
        assert H.dimension == 3
        assert H.resolution == B.resolution
        assert not H.standard_metric

    def test_member_indices_roundtrip(self):
        k = encode_subset(H, [point(0), point(1)])
        assert H.member_indices(k) == frozenset({0, 2})
        assert decode_subset(H, k).members == (point(0), point(1))

    def test_rejects_non_indicator(self):
        with pytest.raises(SpaceMismatch):
            H.member_indices(point(F(1, 2), 0, 0))
        with pytest.raises(SpaceMismatch):
            H.member_indices(point(0, 0))

    def test_rejects_empty_set(self):
        with pytest.raises(SpaceMismatch):
            H.member_indices(point(0, 0, 0))
        with pytest.raises(ValidationError):
            encode_subset(H, [])

    def test_capacity_cap(self):
        big = make_interval(0, 1, F(1, 20))
        with pytest.raises(CapacityError):
            hyper(big)


def eager_net(n):
    """The reference net, built eagerly: every nonempty 0/1 indicator, sorted."""
    pts = [point(*bits) for bits in itertools.product((0, 1), repeat=n) if any(bits)]
    return sorted(set(pts))


class TestSubsetNet:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_eager_enumeration(self, n):
        want = eager_net(n)
        net = SubsetNet(n)
        assert len(net) == len(want) == 2 ** n - 1
        # random access before and after the points are built
        assert [net[k] for k in range(len(net))] == want
        assert [net[-k] for k in range(1, len(net) + 1)] == want[::-1]
        with pytest.raises(IndexError):
            net[len(net)]
        with pytest.raises(IndexError):
            net[-len(net) - 1]
        assert net._points is None
        assert list(net) == want
        assert [net[k] for k in range(len(net))] == want
        assert net[-1] == want[-1] and net[1:3] == tuple(want[1:3])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_index_and_members_follow_the_mask(self, n):
        base = make_finite([point(F(k, 7)) for k in range(n)], label=f"sevenths{n}")
        h = hyper(base)
        assert isinstance(h.net, SubsetNet) and h.net.n == n
        for k, p in enumerate(eager_net(n)):
            assert h.net_index(p) == k
            assert h.member_indices(p) == frozenset(
                i for i, c in enumerate(p.coords) if c == 1)
            # base index 0 is the most significant bit of mask k + 1
            assert h.member_indices(p) == frozenset(
                i for i in range(n) if (k + 1) >> (n - 1 - i) & 1)

    def test_net_index_rejects_off_net_points(self):
        with pytest.raises(SpaceMismatch):
            H.net_index(point(0, 0, 0))
        with pytest.raises(SpaceMismatch):
            H.net_index(point(F(1, 2), 1, 0))
        with pytest.raises(SpaceMismatch):
            H.net_index(point(1, 1))

    def test_equality_and_hash_follow_n(self):
        assert SubsetNet(4) == SubsetNet(4)
        assert hash(SubsetNet(4)) == hash(SubsetNet(4))
        assert SubsetNet(4) != SubsetNet(5)
        assert SubsetNet(3) != tuple(eager_net(3))
        built = SubsetNet(3)
        list(built)
        assert built == SubsetNet(3) and hash(built) == hash(SubsetNet(3))
        other = hyper(make_interval(0, 1, F(1, 2), label="another label"))
        assert other == H and hash(other) == hash(H)
        assert hyper(make_interval(0, 1, F(1, 3))) != H

    def test_hyperspace_needs_the_subset_net_of_its_base(self):
        with pytest.raises(ValidationError):
            HyperSpace(3, tuple(eager_net(3)), B.resolution, "K", B)
        with pytest.raises(ValidationError):
            HyperSpace(2, SubsetNet(2), B.resolution, "K", B)

    def test_q_never_builds_the_indicator_points(self):
        base = make_finite([point(F(k, 17)) for k in range(16)], label="seventeenths")
        sig = signature([Relation("P", 1, base)])
        M = structure(sig, ["a", "b", "c"],
                      {"P": {"a": F(3, 17), "b": F(9, 17), "c": F(3, 17)}})
        phi = parse("Q x. P(x)", sig)
        h = phi.value_space
        assert isinstance(h, HyperSpace) and len(h.net) == 2 ** 16 - 1
        res = evaluate(M, phi)
        assert res.value.members == (point(F(3, 17)), point(F(9, 17)))
        assert res.space is h
        space_to_json(res.space)
        structure_to_json(M)
        assert h.net._points is None

    def test_a_structure_validates_set_values_without_the_net(self):
        h = hyper(make_interval(0, 1, F(1, 15)))
        sig = signature([Relation("P", 1, h)])
        values = {"a": [1] + [0] * 15, "b": [0, 1] + [0] * 13 + [1], "c": [1] * 16}
        M = structure(sig, ["a", "b", "c"], {"P": values})
        assert M.value("P", "b") == point(*values["b"])
        assert evaluate(M, parse("P(x)", sig), {"x": "b"}).value.members == (
            point(F(1, 15)), point(1))
        assert h.net._points is None
        # off-net indicators are refused with the Hausdorff metric's texts
        half = [F(1, 2)] + [0] * 15
        for bad, error in ((half, f"{point(*half)} is not a 0/1 indicator point"),
                           ([0] * 16, "indicator encodes the empty set")):
            with pytest.raises(SpaceMismatch) as caught:
                structure(sig, ["a", "b", "c"], {"P": {**values, "c": bad}})
            assert str(caught.value) == error
        assert h.net._points is None


class TestNearestIndicator:
    @pytest.mark.parametrize("coords, nearest, distance", [
        ((F(1, 4), F(3, 4), F(1, 2)), (0, 1, 0), F(1, 2)),  # a tie rounds to 0
        ((F(1, 4), F(1, 8), F(1, 4)), (0, 0, 1), F(3, 4)),  # the empty set: last largest
        ((F(1, 2), F(1, 2), F(1, 2)), (0, 0, 1), F(1, 2)),
        ((1, F(1, 2), F(2, 3)), (1, 0, 1), F(1, 2)),
    ])
    def test_rounds_each_coordinate(self, coords, nearest, distance):
        # in the flat distance on coordinates, not the Hausdorff metric
        assert nearest_indicator(H, point(*coords)) == (point(*nearest), distance)


class TestCompactSet:
    def test_canonicalizes(self):
        k = compact(B, point(1), point(0), point(1))
        assert k.members == (point(0), point(1))
        assert str(k) == "{(0), (1)}"

    def test_must_be_on_net(self):
        with pytest.raises(SpaceMismatch):
            compact(B, point(F(1, 3)))

    def test_nonempty(self):
        with pytest.raises(ValidationError):
            compact(B)


class TestHausdorff:
    def test_frozen_values(self):
        assert hausdorff(B, compact(B, point(0)), compact(B, point(1))) == 1
        assert hausdorff(B, compact(B, point(0), point(1)), compact(B, point(0))) == 1
        assert hausdorff(B, compact(B, point(0), point(F(1, 2))),
                         compact(B, point(F(1, 2)), point(1))) == F(1, 2)
        k = compact(B, point(0), point(1))
        assert hausdorff(B, k, k) == 0

    def test_respects_space(self):
        other = make_finite([point(0), point(1)])
        with pytest.raises(SpaceMismatch):
            hausdorff(B, compact(B, point(0)), compact(other, point(0)))

    def test_matches_hyperspace_metric(self):
        a = encode_subset(H, [point(0)])
        b = encode_subset(H, [point(F(1, 2)), point(1)])
        assert H.metric(a, b) == hausdorff(
            B, decode_subset(H, a), decode_subset(H, b))


class TestVietoris:
    def test_membership_and_slack_agree(self):
        k = compact(B, point(0), point(F(1, 2)))
        u = ball(B, point(F(1, 4)), F(2, 5))
        v = ball(B, point(0), F(1, 10))
        assert vietoris_member(k, u, [v])
        slack = vietoris_slack(k, u, [v])
        assert slack == F(1, 10) > 0
        # 1/2 lies 1/4 from u's centre and 1 lies 3/4 away; a ball is open
        assert u.contains(point(F(1, 2))) and not u.contains(point(1))
        assert not ball(B, point(0), F(1, 2)).contains(point(F(1, 2)))

    def test_slack_bounds_perturbation(self):
        k = compact(B, point(0), point(F(1, 2)))
        u = ball(B, point(F(1, 4)), F(2, 5))
        v = ball(B, point(0), F(1, 10))
        slack = vietoris_slack(k, u, [v])
        fine = make_interval(0, 1, F(1, 16))
        k2 = compact(fine, point(F(1, 16)), point(F(1, 2)))
        u2 = ball(fine, point(F(1, 4)), F(2, 5))
        v2 = ball(fine, point(0), F(1, 10))
        assert hausdorff(fine, compact(fine, point(0), point(F(1, 2))), k2) < slack
        assert vietoris_member(k2, u2, [v2])

    def test_nonmember_has_nonpositive_slack(self):
        k = compact(B, point(0), point(1))
        u = ball(B, point(0), F(1, 4))
        assert not vietoris_member(k, u)
        assert vietoris_slack(k, u) <= 0


class TestLift:
    def test_direct_image(self):
        ln = lift(neg(B))
        k = encode_subset(H, [point(0), point(F(1, 2))])
        out = ln(k)
        cod_hyper = ln.codomain
        members = decode_subset(cod_hyper, out).members
        assert members == (point(F(1, 2)), point(1))

    def test_identity_lifts_to_identity(self):
        li = lift(identity(B))
        for k in H.net:
            assert li(k) == k

    def test_sup_inf_theta(self):
        st = sup_theta(identity(B))
        it = inf_theta(identity(B))
        k = encode_subset(H, [point(0), point(1)])
        assert st(k) == point(1)
        assert it(k) == point(0)
        assert st.lipschitz == identity(B).lipschitz

    def test_sup_theta_nontrivial_observable(self):
        sq = table([B], {(p,): point(p.scalar * p.scalar) for p in B.net},
                   F(2), codomain=make_finite([point(0), point(F(1, 4)), point(1)]))
        st = sup_theta(sq)
        k = encode_subset(H, [point(0), point(F(1, 2))])
        assert st(k) == point(F(1, 4))


class TestUrysohn:
    def test_separates_disjoint(self):
        k = compact(B, point(0))
        f = compact(B, point(1))
        theta = urysohn_separator(B, k, f)
        sup_k = max(theta(p).scalar for p in k.members)
        sup_f = max(theta(p).scalar for p in f.members)
        assert sup_k == 0 and sup_f == 1

    def test_separates_nested(self):
        k = compact(B, point(0), point(F(1, 2)), point(1))
        f = compact(B, point(F(1, 2)))
        theta = urysohn_separator(B, k, f)
        sup_k = max(theta(p).scalar for p in k.members)
        sup_f = max(theta(p).scalar for p in f.members)
        assert abs(sup_k - sup_f) == 1

    def test_codomain_is_the_finite_space_of_its_values(self):
        theta = urysohn_separator(B, compact(B, point(0)), compact(B, point(1)))
        assert theta.codomain == make_finite([theta.evaluator(p) for p in B.net])
        assert [p.scalar for p in theta.codomain.net] == [0, F(1, 2), 1]

    def test_identical_sets_rejected(self):
        k = compact(B, point(0))
        with pytest.raises(ValidationError):
            urysohn_separator(B, k, compact(B, point(0)))


class TestRefusals:
    """Each refusal ends in its own error type and message."""

    Q = make_interval(0, 1, F(1, 4), label="quarters")

    @pytest.mark.parametrize("build, error, message", [
        (lambda: OpenRegion(B, ()), ValidationError, "an open region needs at least one ball"),
        (lambda: ball(B, point(0, 0), 1), SpaceMismatch, "ball center (0, 0) does not fit halves"),
        (lambda: ball(B, point(0), 0), ValidationError, "ball radius must be positive"),
        (lambda: vietoris_slack(compact(B, point(0)), ball(TestRefusals.Q, point(0), 1)),
         SpaceMismatch, "regions must live on the set's space"),
        (lambda: urysohn_separator(B, compact(TestRefusals.Q, point(0)), compact(B, point(1))),
         SpaceMismatch, "separator needs both sets on the given space"),
        (lambda: hyper(5), ValidationError, "base of a hyperspace must be a ValueSpace, got int"),
    ], ids=["region-no-ball", "ball-center-dimension", "ball-radius", "vietoris-foreign-region",
            "urysohn-foreign-set", "hyper-int"])
    def test_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()
