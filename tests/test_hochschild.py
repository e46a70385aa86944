from __future__ import annotations

import json

import pytest

from dunklweyl.hochschild import (
    Certificate,
    certify_monomial,
    check_certificate,
    hh0_report,
    reduce_certificate,
)
from dunklweyl.scalars import GaussianRational, ScalarPoly
from dunklweyl.spherical import InvariantPoly, ParityError, invariant_monomials
from dunklweyl.trace import class_scalar, phi, recursion_scalar
from tests.conftest import h1_range


class TestReduce:
    def test_unit_monomial(self):
        cert = reduce_certificate(0, 0)
        assert cert.scalar == ScalarPoly.one()
        assert cert.witnesses == ()
        assert check_certificate(cert)

    def test_off_diagonal_single_witness(self):
        cert = reduce_certificate(2, 0)
        assert cert.scalar.is_zero()
        assert len(cert.witnesses) == 1
        assert cert.witnesses[0].right == InvariantPoly.zzbar()
        assert check_certificate(cert)

    def test_zzb_scalar(self):
        cert = reduce_certificate(1, 1)
        assert cert.scalar == class_scalar(1)
        assert check_certificate(cert)

    def test_z4zb4_matches_phi(self):
        cert = reduce_certificate(4, 4)
        assert check_certificate(cert)
        assert cert.scalar == phi(InvariantPoly.monomial(4, 4))

    def test_parity_rejected(self):
        with pytest.raises(ParityError):
            reduce_certificate(2, 1)

    def test_witness_h1_exponents_bounded(self):
        for m in invariant_monomials(12):
            ((p, q), _c), = m.terms()
            for w in reduce_certificate(p, q).witnesses:
                lo, _hi = h1_range(w.coeff)
                assert lo >= -1


    def test_witnesses_are_the_suffix_products(self):
        # the old construction: step j's coefficient is the ScalarPoly product
        # of recursion_scalar(l) for l > j, divided by 2*i*h1*(j+1)
        p = 14
        cert = reduce_certificate(p, p)
        tail = ScalarPoly.one()
        for w, j in zip(cert.witnesses, range(p, 0, -1)):
            divisor = ScalarPoly.monomial(GaussianRational.of(0, 2 * (j + 1)), 1, 0)
            want = tail * divisor.invert_monomial()
            assert w.coeff == want and w.coeff.to_json() == want.to_json(), f"j={j}"
            tail = tail * recursion_scalar(j)
        assert len(cert.witnesses) == p
        assert cert.scalar == tail and cert.scalar.to_json() == class_scalar(p).to_json()

    def test_reads_the_product_stream(self, monkeypatch):
        # witnesses and scalar come from the trace module's one stream of
        # factor products: no ScalarPoly product, where the suffix products
        # and class_scalar(40) made 120
        calls = []
        mul = ScalarPoly.__mul__
        monkeypatch.setattr(ScalarPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        cert = reduce_certificate(40, 40)
        assert len(calls) == 0
        monkeypatch.undo()
        assert cert.scalar == class_scalar(40) and check_certificate(cert)


class TestCheck:
    def test_perturbed_scalar_fails(self):
        cert = reduce_certificate(1, 1)
        bad = Certificate(
            target=cert.target,
            scalar=cert.scalar + ScalarPoly.h1(),
            witnesses=cert.witnesses,
        )
        assert check_certificate(cert)
        assert not check_certificate(bad)

    def test_dropped_witness_fails(self):
        cert = reduce_certificate(3, 3)
        bad = Certificate(
            target=cert.target, scalar=cert.scalar, witnesses=cert.witnesses[1:]
        )
        assert not check_certificate(bad)


class TestSerialization:
    def test_json_roundtrip_replays(self):
        cert = reduce_certificate(3, 3)
        text = cert.to_json()
        replayed = Certificate.from_json(text)
        assert replayed.target == cert.target
        assert replayed.scalar == cert.scalar
        assert check_certificate(replayed)

    def test_json_shape(self):
        data = json.loads(reduce_certificate(2, 2).to_json())
        assert set(data) == {"target", "scalar", "witnesses"}
        assert all(set(w) == {"coeff", "left", "right"} for w in data["witnesses"])


class TestReport:
    def test_degree_zero(self):
        report = hh0_report(0)
        assert len(report.entries) == 1
        assert report.entries[0].scalar == "1"
        assert report.all_ok

    def test_degree_four_has_nine_entries(self):
        report = hh0_report(4)
        assert len(report.entries) == 9
        assert report.all_ok

    def test_degree_twelve_all_certified(self):
        report = hh0_report(12)
        assert len(report.entries) == 49
        assert report.all_ok

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            hh0_report(5)

    def test_certify_monomial_record(self):
        entry = certify_monomial(InvariantPoly.monomial(2, 2))
        assert entry.monomial == "z^2*zb^2" and entry.checked
        assert entry.scalar == entry.phi == phi(InvariantPoly.monomial(2, 2)).to_text()
        assert entry.ok
        wrong = entry._replace(phi="0")
        assert not wrong.matches_phi and not wrong.ok
