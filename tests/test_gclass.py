"""Seed family: derived integers, chains, membership, splitting, certificates."""

import dataclasses
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from nctorus import (
    BadInput,
    BadSeed,
    ChainFailure,
    DEFAULT_KAPPAS,
    IndeterminateSign,
    Interval,
    Kappas,
    NotCoprime,
    SeedParams,
    ThetaLinear,
    certify,
    chern_one,
    derive,
    interval,
    lemma31_arithmetic,
    member,
    seed_grid,
    verify_chain,
    verify_identities,
)
from nctorus import gclass
from nctorus.cli import run
from nctorus.gclass import chain_parts

F = Fraction

CHAIN_LINKS = (
    "outer_lo_lt_rs",
    "rs_lt_window_lo",
    "window_lo_lt_window_hi",
    "window_hi_lt_pq",
    "pq_lt_outer_hi",
)

IDENTITY_NAMES = (
    "ps_qr_unimodular",
    "sA_Br_unimodular",
    "two_s_eq_B_plus_4m2",
    "s2_q2_eq_4m2_B",
    "one_rs_pq_eq_4m2_A",
    "rm2_minus_s_halfshift",
    "kq_pm_gap",
    "ks_mr_gap",
)


@st.composite
def valid_seeds(draw, max_km: int = 15):
    m = draw(st.integers(min_value=3, max_value=max_km))
    k = draw(st.integers(min_value=1, max_value=(m - 1) // 2))
    assume(gcd(k, m) == 1)
    return SeedParams(k, m)


class TestSeedValidation:
    def test_rejects_bad_seeds(self):
        for k, m in ((0, 3), (1, 0), (1, 2), (2, 4), (3, 6), (2, 3)):
            with pytest.raises(BadSeed):
                SeedParams(k, m)

    def test_accepts_valid(self):
        assert SeedParams(1, 3).to_json() == {"k": 1, "m": 3}
        SeedParams(19, 39)


class TestDerive:
    def test_frozen_small_seed(self):
        d = derive(SeedParams(1, 3))
        assert (d.n, d.q, d.s, d.p, d.r, d.A, d.B) == (13, 169, 205, 108, 131, 239, 374)

    def test_frozen_next_seed(self):
        d = derive(SeedParams(1, 5))
        assert (d.n, d.q, d.s, d.p, d.r, d.A, d.B) == (21, 441, 541, 172, 211, 383, 982)

    @given(valid_seeds())
    def test_unimodular_rows(self, seed):
        d = derive(seed)
        assert d.p * d.s - d.q * d.r == 1
        assert d.s * d.A - d.B * d.r == 1
        assert d.s - d.q == 4 * seed.m * seed.m


class TestIdentities:
    def test_names_in_order(self):
        names = tuple(name for name, _ in verify_identities(SeedParams(1, 3)))
        assert names == IDENTITY_NAMES

    @given(valid_seeds())
    def test_all_hold(self, seed):
        assert all(flag for _, flag in verify_identities(seed))


class TestKappas:
    def test_default(self):
        assert DEFAULT_KAPPAS.k1 == F(3, 4)
        assert DEFAULT_KAPPAS.k2 == F(1, 2)

    def test_rejections(self):
        with pytest.raises(BadInput):
            Kappas(F(3, 5), F(3, 10))  # sum not above one
        with pytest.raises(BadInput):
            Kappas(F(1, 2), F(1, 2))  # k1 must exceed 1/2
        with pytest.raises(BadInput):
            Kappas(F(5, 4), F(1, 2))  # k1 must stay below 1
        with pytest.raises(BadInput):
            Kappas(F(3, 4), F(3, 5))  # k2 must stay at or below 1/2
        with pytest.raises(BadInput):
            Kappas(F(3, 4), F(0, 1))  # k2 must be positive

    def test_boundary_accepted(self):
        Kappas(F(99, 100), F(1, 2))
        Kappas(F(2, 3), F(1, 2))


class TestChain:
    def test_link_names(self):
        parts = chain_parts(SeedParams(1, 3), DEFAULT_KAPPAS)
        assert tuple(parts) == CHAIN_LINKS

    @given(valid_seeds())
    def test_holds_on_grid_defaults(self, seed):
        assert verify_chain(seed, DEFAULT_KAPPAS)

    def test_breaks_under_extreme_slack(self):
        kap = Kappas(F(99, 100), F(1, 2))
        parts = chain_parts(SeedParams(1, 3), kap)
        assert parts["rs_lt_window_lo"] is False
        with pytest.raises(ChainFailure) as err:
            interval(SeedParams(1, 3), kap)
        assert "rs_lt_window_lo" in str(err.value)


class TestInterval:
    def test_frozen_endpoints(self):
        iv = interval(SeedParams(1, 3), DEFAULT_KAPPAS)
        # (pq - k1)/q^2 and (rs + k2)/s^2 with the derived integers for 1/3
        assert iv.lo == F(108 * 169 * 4 - 3, 4 * 169 * 169)
        assert iv.hi == F(131 * 205 * 2 + 1, 2 * 205 * 205)

    @given(valid_seeds())
    def test_nested_between_ratios(self, seed):
        d = derive(seed)
        iv = interval(seed, DEFAULT_KAPPAS)
        assert F(d.r, d.s) < iv.lo < iv.hi < F(d.p, d.q)
        assert F(2 * seed.k * seed.m - 1, 2 * seed.m * seed.m) < F(d.r, d.s)
        assert F(d.p, d.q) < F(2 * seed.k, seed.m)

    @given(valid_seeds())
    def test_width_below_inverse_q_squared(self, seed):
        d = derive(seed)
        iv = interval(seed, DEFAULT_KAPPAS)
        assert iv.width() < F(1, d.q * d.q)

    def test_cover_returns_one_interval_per_seed(self, tmp_path, capsys):
        out = tmp_path / "cover.json"
        assert run(["gclass", "cover", "--seeds", "1/3,2/5", "-o", str(out)]) == 0
        ivs = [interval(SeedParams(k, m), DEFAULT_KAPPAS) for k, m in ((1, 3), (2, 5))]
        assert json.loads(out.read_text()) == {"intervals": [iv.to_json() for iv in ivs], "ok": True}
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"seed {s}: ({iv.lo}, {iv.hi})" for s, iv in zip(("1/3", "2/5"), ivs)]


class TestMember:
    def test_rejects_theta_outside_unit_interval(self):
        with pytest.raises(BadInput):
            member(F(3, 2))
        with pytest.raises(BadInput):
            member(0)

    def test_generic_rational_misses(self):
        assert member(F(1, 2), kmax=10) == []

    def test_midpoint_recovered(self):
        seed = SeedParams(1, 3)
        theta = interval(seed, DEFAULT_KAPPAS).midpoint()
        assert seed in member(theta, DEFAULT_KAPPAS, kmax=3)

    def test_even_m_seed_kept_but_not_certifiable(self):
        theta = interval(SeedParams(1, 4), DEFAULT_KAPPAS).midpoint()
        hits = member(theta, DEFAULT_KAPPAS, kmax=4)
        assert hits == [SeedParams(1, 4)]
        assert not hits[0].certifiable
        with pytest.raises(NotCoprime):
            certify(hits[0], DEFAULT_KAPPAS)

    def test_grid_sizes(self):
        assert len(seed_grid(5)) == 3
        assert len(seed_grid(40)) == 158


#: slack pairs for the scan comparison; 99/100 breaks the chain of small seeds
SCAN_KAPPAS = [Kappas(F(3, 4), F(1, 2)), Kappas(F(99, 100), F(1, 2)), Kappas(F(51, 100), F(1, 2)),
               Kappas(F(3, 4), F(1, 3)), Kappas(F(9, 10), F(1, 5))]
SCAN_KMAX = [1, 2, 3, 4, 5, 6, 10, 20]


def _scanned_intervals(kappas, kmax):
    """Every valid seed with m <= kmax and its interval (None on a broken chain), by (m, k)."""
    out = []
    for m in range(1, kmax + 1):
        for k in range(1, m):
            if 2 * k < m and gcd(k, m) == 1:
                seed = SeedParams(k, m)
                ok = all(chain_parts(seed, kappas).values())
                out.append((seed, interval(seed, kappas) if ok else None))
    return out


@pytest.mark.parametrize("kappas", SCAN_KAPPAS, ids=lambda kap: f"{kap.k1}-{kap.k2}")
def test_member_matches_scan_of_every_seed(kappas):
    table = _scanned_intervals(kappas, max(SCAN_KMAX))
    # the default intervals also probe the windows of seeds whose chain these kappas break
    thetas = []
    for _, iv in table + _scanned_intervals(DEFAULT_KAPPAS, max(SCAN_KMAX)):
        if iv is not None:
            tiny = iv.width() / 1000
            thetas += [iv.midpoint(), iv.lo, iv.hi, iv.lo + tiny, iv.hi - tiny]
    thetas = list(dict.fromkeys(thetas))
    rng = random.Random(10)
    for _ in range(40):
        den = rng.randrange(2, 10**6)
        thetas.append(F(rng.randrange(1, den), den))
    hits = 0
    for theta in thetas:
        for kmax in SCAN_KMAX:
            want = [seed for seed, iv in table if seed.m <= kmax and iv is not None and iv.lo < theta < iv.hi]
            assert member(theta, kappas, kmax) == want, (theta, kmax)
            hits += bool(want)
    # at kmax 20 each midpoint and both points just inside hit their own seed
    assert hits >= 3 * sum(iv is not None for _, iv in table)


def _member_scan(theta, kappas, kmax):
    """The linear scan member replaced: for each m <= kmax, test the one seed k = floor(m*theta/2) + 1."""
    hits = []
    for m in range(3, kmax + 1):
        k = m * theta.numerator // (2 * theta.denominator) + 1
        if 2 * k >= m or gcd(k, m) != 1:
            continue
        seed = SeedParams(k, m)
        if all(chain_parts(seed, kappas).values()):
            iv = interval(seed, kappas)
            if iv.lo < theta < iv.hi:
                hits.append(seed)
    return hits


@st.composite
def member_thetas(draw):
    """A random rational in (0, 1), or a point just inside or outside a seed window."""
    if draw(st.booleans()):
        den = draw(st.integers(min_value=2, max_value=10**6))
        return F(draw(st.integers(min_value=1, max_value=den - 1)), den)
    seed = draw(valid_seeds(max_km=max(SCAN_KMAX)))
    kappas = draw(st.sampled_from(SCAN_KAPPAS))
    assume(verify_chain(seed, kappas))
    iv = interval(seed, kappas)
    end = draw(st.sampled_from((iv.lo, iv.hi)))
    return end + draw(st.sampled_from((-1, 1))) * iv.width() / 1000


@pytest.mark.parametrize("kappas", SCAN_KAPPAS, ids=lambda kap: f"{kap.k1}-{kap.k2}")
@given(theta=member_thetas())
def test_member_matches_linear_scan(kappas, theta):
    for kmax in SCAN_KMAX:
        assert member(theta, kappas, kmax) == _member_scan(theta, kappas, kmax), kmax


def test_member_finds_a_seed_beyond_any_scan():
    # m > 10^15: the linear scan could not reach this seed
    seed = SeedParams(10**15 // 2, 10**15 + 1)
    theta = interval(seed, DEFAULT_KAPPAS).midpoint()
    assert member(theta, DEFAULT_KAPPAS, kmax=seed.m) == [seed]
    assert member(theta, DEFAULT_KAPPAS, kmax=seed.m - 1) == []


class TestLemma31:
    def test_rejects_degenerate_pairs(self):
        window = Interval(F(1, 3), F(1, 2))
        with pytest.raises(NotCoprime):
            lemma31_arithmetic(2, 4, ThetaLinear(0, 1), window)
        with pytest.raises(BadInput):
            lemma31_arithmetic(0, 1, ThetaLinear(0, 1), window)
        with pytest.raises(BadInput):
            lemma31_arithmetic(3, -1, ThetaLinear(0, 1), window)

    def test_frozen_modular_data(self):
        # N=5, M=3: the inverse of 3 mod 5 is 2, and 1 = 2*3 - 1*5
        window = Interval(F(3, 5), F(7, 10))
        t = ThetaLinear(F(-3, 8), F(5, 8))  # exactly (5*theta - 3)/8
        rec = lemma31_arithmetic(5, 3, t, window)
        assert (rec.c, rec.d) == (2, -1)
        assert rec.K == 0
        assert rec.L == F(1, 8)
        assert rec.identity_ok
        assert rec.positive_ok and rec.upper_ok and rec.bound_ok and rec.ok
        assert rec.trace_h == ThetaLinear(F(-15, 8), F(25, 8))

    def test_fractional_split_serializes(self):
        # the criterion-07 draw N=7, M=3, scale 2/9 splits t with K=0, L=2/9
        window = Interval(F(3, 7) + F(1, 679), F(3, 7) + F(2, 679))
        rec = lemma31_arithmetic(7, 3, ThetaLinear(F(-2, 3), F(14, 9)), window)
        assert (rec.K, rec.L) == (0, F(2, 9))
        obj = json.loads(json.dumps(rec.to_json()))
        assert obj["K"] == 0 and obj["L"] == "2/9"

    def test_indeterminate_window_raises(self):
        # t crosses zero inside the window: no sign decision is possible
        window = Interval(F(1, 4), F(3, 4))
        with pytest.raises(IndeterminateSign):
            lemma31_arithmetic(5, 3, ThetaLinear(-1, 2), window)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_identity_for_random_pairs(self, N, M):
        if gcd(N, M) != 1:
            return
        # a t proportional to the divisor makes every sign decidable
        window = Interval(F(M, N) + F(1, 100 * N), F(M, N) + F(2, 100 * N))
        t = ThetaLinear(F(-M, 8), F(N, 8))
        rec = lemma31_arithmetic(N, M, t, window)
        assert rec.identity_ok


class TestCertify:
    def test_frozen_certificate(self):
        cert = certify(SeedParams(1, 3), DEFAULT_KAPPAS)
        assert cert.overall
        assert cert.sum_ok
        assert cert.tau0 == ThetaLinear(8604, -13464)
        assert cert.tau0_formula_ok and cert.tau0_positive
        assert 4 * cert.tau_g == cert.tau0 and cert.checks()["flat_trace"]
        assert cert.lemma31.N == 3 and cert.lemma31.M == 1
        assert cert.lemma31.ok

    def test_vector_sum_is_unit_vector(self):
        cert = certify(SeedParams(2, 5), DEFAULT_KAPPAS)
        assert cert.vector_sum == chern_one()
        assert chern_one().trace == ThetaLinear(1, 0)

    def test_even_denominator_rejected(self):
        with pytest.raises(NotCoprime):
            certify(SeedParams(1, 4), DEFAULT_KAPPAS)

    def test_grid(self):
        seeds = seed_grid(7)
        assert len(seeds) == 6
        assert all(certify(seed, DEFAULT_KAPPAS).overall for seed in seeds)

    def test_checks_in_print_order(self):
        cert = certify(SeedParams(2, 5), DEFAULT_KAPPAS)
        names = tuple(cert.checks())
        assert names[:13] == IDENTITY_NAMES + CHAIN_LINKS
        assert names[13:] == ("vector_sum", "tau0_formula", "tau0_positive", "kappa2_below_s_over_B",
                              "split_identity", "split_bound", "flat_trace")

    def test_json_shape(self):
        obj = certify(SeedParams(1, 3), DEFAULT_KAPPAS).to_json()
        assert obj["seed"] == {"k": 1, "m": 3}
        assert obj["overall"] is True
        assert obj["vectors"]["sum_ok"] is True
        assert set(obj["lemma31"]) >= {"N", "M", "c", "d", "K", "L", "identity_ok"}


class TestOneDerivationPerSeed:
    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        real = gclass.derive

        def counting(seed):
            counter.append(seed)
            return real(seed)

        monkeypatch.setattr(gclass, "derive", counting)
        return counter

    def test_certify_derives_once(self, calls):
        certify(SeedParams(3, 11), DEFAULT_KAPPAS)
        assert calls == [SeedParams(3, 11)]

    @staticmethod
    def _convergent_count(theta):
        count, (num, den) = 0, (theta.numerator, theta.denominator)
        while den:
            num, den = den, num % den
            count += 1
        return count

    def test_member_derives_at_most_once_per_convergent(self, calls):
        seed = SeedParams(3, 11)
        for theta in (F(73, 1156), interval(seed, DEFAULT_KAPPAS).midpoint(), F(355, 1133)):
            calls.clear()
            hits = member(theta, DEFAULT_KAPPAS, kmax=200)
            assert len(set(calls)) == len(calls)
            assert len(calls) <= self._convergent_count(theta)
            assert set(hits) <= set(calls)
        # a theta inside seed 3/11 derives it exactly once
        theta = interval(seed, DEFAULT_KAPPAS).midpoint()
        calls.clear()
        assert member(theta, DEFAULT_KAPPAS, kmax=200) == [seed]
        assert calls.count(seed) == 1


class TestIdentityFailuresReported:
    def test_wrong_integer_fails_the_certificate(self, monkeypatch):
        # a wrong A leaves the chain intact, so certify reaches every check
        real = gclass.derive
        monkeypatch.setattr(gclass, "derive", lambda seed: dataclasses.replace(real(seed), A=real(seed).A + 1))
        cert = certify(SeedParams(3, 11), DEFAULT_KAPPAS)
        assert cert.overall is False
        assert cert.identities["sA_Br_unimodular"] is False
        assert cert.to_json()["overall"] is False


class TestDerivedChecks:
    """tau0_formula and flat_trace read two identities; kappa2_below_s_over_B reads tau0_positive."""

    @pytest.mark.parametrize("identity, change", [
        ("s2_q2_eq_4m2_B", {"B": 1}),
        ("one_rs_pq_eq_4m2_A", {"A": 1}),
    ])
    def test_broken_identity_fails_tau0_formula(self, monkeypatch, identity, change):
        # a wrong A or B leaves the chain intact, so certify reaches every check
        real = gclass.derive

        def shifted(seed):
            d = real(seed)
            return dataclasses.replace(d, **{name: getattr(d, name) + by for name, by in change.items()})

        monkeypatch.setattr(gclass, "derive", shifted)
        cert = certify(SeedParams(3, 11), DEFAULT_KAPPAS)
        checks = cert.checks()
        assert checks[identity] is False
        assert checks["tau0_formula"] is False and checks["flat_trace"] is False
        assert cert.overall is False
        obj = cert.to_json()
        assert obj["tau_f"] != obj["tau0"]
        assert obj["tau0_formula_ok"] is False and obj["flat_trace_ok"] is False

    @pytest.mark.parametrize("kappas", [DEFAULT_KAPPAS, Kappas(F(4, 5), F(21, 100)), Kappas(F(4, 5), F(1, 2))])
    def test_read_checks_match_their_own_statements(self, kappas):
        for seed in seed_grid(15):
            cert = certify(seed, kappas)
            d, checks = cert.derived, cert.checks()
            assert checks["tau0_formula"] == checks["flat_trace"] == (4 * cert.tau_g == cert.tau0)
            assert checks["kappa2_below_s_over_B"] == (kappas.k2 * d.B < d.s)
            assert cert.to_json()["tau_f"] == (4 * cert.tau_g).to_json()
