"""Golden outputs of every audit that reads `audits._prepared`.

Each case runs every backend-taking audit, `audit_oi`, `best_response` and
the omniprediction audit on one fixed instance, first cold (a fresh
predictor object for every call, so every call builds) and then warm (one
predictor, so later calls read its memo), and pins the sha256 of the
`repr` of the records.  The OI families read no grid (lowdegree), two
distinct grid objects, and a twin grid equal to the first but a separate
object.  The digests were recorded before the mass part and the level part
of a prepared population were split; any change to a value, a witness, a
tie-break, a level or a member's payload shows up here.

The rational covariance reports are pinned apart, in COV_RATIONAL: they
carry the known covariance defect (ROADMAP item 1, the report divided by D
once more), so mending it re-records exactly that digest.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from multifair import (
    LossTable,
    Predictor,
    audit_calibration,
    audit_covariance_mc,
    audit_multi_accuracy,
    audit_multi_calibration,
    audit_oi,
    audit_strict_multi_calibration,
    best_response,
    check_conditional,
    fixture_grid_population,
    make_family,
    make_grid_with_denominator,
    mwu_rule,
    omni_audit,
    random_instance,
    update,
    violation_profile,
    zero_one_loss,
)

GOLDEN = {
    "rand0":
        "317ffa02fc49786b6b98b74ba349504b7726a88cc41d2a5484b6c09f82cc5829",
    "rand1":
        "f692d5053af709348aca1c8361adbe59239682ff613cc64cb820fa3942a29ca4",
    "rand2":
        "163a9767a946f059a361ab4a3dd21e919fbe632f2318e1dc0d2f66103123c0af",
    "rand3":
        "2a8bb429264983e26be4ae3796d170db9ec09b206fa34e5402d95292cc6cf160",
    "rand4":
        "9b55302c4af8e12c7b8f0eea217b1b239089fa33d25387ce5b99c964efeaf403",
    "rand5":
        "0fe12090ecac46c57cc9e05e0937b854a4909b13924b394fa59a31d54fa967bd",
    "rand6":
        "af06097b5277c0d229d97b4bfaeee01d385fb9d142a9767d87d9a97692a182fd",
    "rand7":
        "8deb876b78267c13e5c17dc2028d525ce84f0e123233df47538b34c36c629f3e",
    "rand8":
        "b4d5cc3884a4993fd844177535f806701c2eaac412ecd87ac788e9bc0512e8c5",
    "rand9":
        "c910178618ac1729d8b591bcb1466057b33744e6338fa87a2dd2976f0121f193",
    "rand10":
        "0f03aeb973f133e6492c6751fe38c54959d7df7d5f5bbfdf0f7f65d1e891526f",
    "rand11":
        "c138d7d00550131f3259897b94168bc74419f0089d8c003e25f5432c4e909e19",
    "grid5":
        "aad66c915f969931a096b3e796440b7d9db7bc3dfba78c5c26c1bebc122c6090",
}

# the rational `audit_covariance_mc` reports of every binary case, in case
# order: they carry the covariance defect of ROADMAP item 1
COV_RATIONAL = \
    "bb254a1d5bd244d111893dadc43c3ca0058c6aadc2837f61eff36964fb54ebc6"

# (name, seed, individuals, outcomes, hypotheses, 0/1 hypotheses, MWU-stepped)
CASES = (
    ("rand0", 0, 12, 2, 3, True, False),
    ("rand1", 1, 20, 2, 4, True, True),
    ("rand2", 2, 16, 2, 3, False, False),
    ("rand3", 3, 10, 2, 2, True, True),
    ("rand4", 4, 14, 3, 3, True, False),
    ("rand5", 5, 12, 3, 3, True, True),
    ("rand6", 6, 18, 3, 2, False, False),
    ("rand7", 7, 9, 3, 4, True, True),
    ("rand8", 8, 10, 8, 3, True, False),
    ("rand9", 9, 12, 8, 2, True, True),
    ("rand10", 10, 8, 8, 3, False, False),
    ("rand11", 11, 14, 8, 2, True, True),
)
NAMES = [c[0] for c in CASES] + ["grid5"]


def _instance(name):
    if name == "grid5":
        return fixture_grid_population(5)
    _, seed, n, ell, nh, binary, stepped = next(c for c in CASES if c[0] == name)
    pop, cls, pred = random_instance(np.random.default_rng([seed, 53]), n, ell, nh,
                                     binary_hypotheses=binary)
    if stepped:  # float predictions, one MWU step from the exact ones
        rule = mwu_rule(pop.space, 0.3)
        loss = LossTable(pop.space, tuple((k % 3) / 2 for k in range(ell)))
        pred = Predictor({j: update(rule, d, loss) for j, d in pred.values.items()})
    return pop, cls, pred


def _families(pop, cls):
    """basic, mc and smc on grids of denominators 2 and 3 and on a twin of
    the first, then lowdegree (no grid) and an explicit family of event
    members on the twin."""
    grids = [make_grid_with_denominator(pop.space, m) for m in (2, 3, 2)]
    fams = [make_family(kind, hypotheses=cls, grid=g) for g in grids
            for kind in ("basic", "mc", "smc")]
    fams.append(make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space))
    fams.append(make_family("explicit", members=fams[6].members()[:4]))
    return fams


def _fields(r):
    return vars(r) if hasattr(r, "__dict__") else r


def _records(pop, cls, predictor):
    """repr of every call but the rational covariance audit, the predictor
    drawn from `predictor()` for each call."""
    binary = pop.space.is_binary and cls.is_binary
    out = []
    for b in ("rational", "float"):
        out += [_fields(audit(pop, predictor(), cls, b)) for audit in (
            audit_multi_accuracy, audit_multi_calibration, audit_strict_multi_calibration)]
        out.append(audit_calibration(pop, predictor(), b))
        if binary:
            if b == "float":
                out.append(_fields(audit_covariance_mc(pop, predictor(), cls, b)))
            out.append(violation_profile(pop, predictor(), cls, b))
            out += [check_conditional(pop, predictor(), cls, eps, kind, b)
                    for eps in (Fraction(1, 10), Fraction(1, 3)) for kind in ("MA", "MC", "SMC")]
        for fam in _families(pop, cls):
            d, adv = best_response(pop, predictor(), fam, b)
            out += [_fields(audit_oi(pop, predictor(), fam, b)), (d.name, d.payload, adv)]
    if cls.is_binary:  # its values are the actions "0" and "1" of the loss
        out.append(_fields(omni_audit(pop, predictor(), [zero_one_loss(pop.space)], cls)))
    return repr(out)


def _covariance_records(pop, cls, predictor):
    if not (pop.space.is_binary and cls.is_binary):
        return None
    return repr(_fields(audit_covariance_mc(pop, predictor(), cls)))


def _cold_and_warm(records, name):
    pop, cls, pred = _instance(name)
    cold = records(pop, cls, lambda: Predictor(dict(pred.values)))
    warm = records(pop, cls, lambda: pred)
    assert warm == cold
    return cold


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", NAMES)
def test_every_prepared_audit_is_pinned(name):
    assert _digest(_cold_and_warm(_records, name)) == GOLDEN[name]


def test_rational_covariance_reports_are_pinned_with_their_defect():
    """The known covariance defect (ROADMAP item 1) is in these records."""
    covs = [_cold_and_warm(_covariance_records, name) for name in NAMES]
    assert _digest(repr(covs)) == COV_RATIONAL
