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

LOWDEGREE_OMNI pins the two audits that price the cell table rather than
only summing it: the lowdegree `audit_oi` and `best_response` at degrees 1
and 3, and `omni_audit` with the asymmetric, squared and 3-action tie
losses on 0/1 classes and on non-binary classes mapped to actions.  Those
digests were recorded while both audits still summed per individual and
per level.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from multifair import (
    Hypothesis,
    HypothesisClass,
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
from test_audit_oracles import _asymmetric_loss, _eighths_class, _squared_loss, _tie_loss

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

# lowdegree audits and best responses, and omniprediction audits, per case
LOWDEGREE_OMNI = {
    "rand0":
        "5238bcd7216ba017cbb59edccee1302aec712eb4fc2d42bd16441292f3593eef",
    "rand1":
        "214d972c0e7123366663dbef7b711d5267da4c7d76e2e2330deb55ec49116b24",
    "rand2":
        "71dd5ed4ad1c16f1fb669a1d92997e30240669b1b2cef462d05e9d1d13e81565",
    "rand3":
        "564ad825fa315c67abc8e3d43cd0068affbc26b672538d4479e1ce6ba974ffb1",
    "rand4":
        "05547536c33bb6d58f93ce61eb4ea7edec761e00f0ec8d529ff4c3e64fd34ca8",
    "rand5":
        "c0ff7d18f48bcc679ff468d99256711c856571b8bd2c4d60c67e9c3b7b88bd98",
    "rand6":
        "491f51e495a2eba65ffafe2c07e631b3e43b890b99e21b4f5912074afb56e95a",
    "rand7":
        "6ad330e38427c3d07a060e62dd881b7c10346a742a5a293ad87e8502f3a83d7d",
    "rand8":
        "e7aeff45812f3cddffe132556c3775ad9728281b62ab9bc637b3d63ab2948976",
    "rand9":
        "be46529185581f0e5636b4a07c992863cf3d037c2279a2a2b4a74bd8d72d49c1",
    "rand10":
        "75149d5b3d33d43bda13a30190e3faedc9467044fb7362822908d56ec958c4cb",
    "rand11":
        "b429190c4ef04ecb0ca3ad34bd4d221ae742b21b58b951da96e787b415405689",
    "grid5":
        "70a6dcd6ff9265ef4345f312839c7e15cbdfa3c5214a516d1d2a0674f2a3d2f8",
}

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


def _action_class(pop, name, values, seed):
    """One hypothesis of range `values`, drawn per individual."""
    picks = np.random.default_rng([seed, 59]).integers(0, len(values), len(pop.ids)).tolist()
    return HypothesisClass((Hypothesis(name, values, dict(zip(pop.ids, map(values.__getitem__,
                                                                                picks)))),))


def _lowdegree_omni_records(pop, cls, predictor):
    """repr of the lowdegree audits and best responses at degrees 1 and 3
    under both backends, then of the omniprediction audits: on a binary
    population the case's class, an eighths class and a class of range
    (0, 1, 2) against the losses whose actions they map to; on any other
    the zero-one loss against a class of outcome indices."""
    out = []
    for b in ("rational", "float"):
        for degree in (1, 3):
            fam = make_family("lowdegree", hypotheses=cls, degree=degree,
                              outcome_space=pop.space)
            d, adv = best_response(pop, predictor(), fam, b)
            out += [_fields(audit_oi(pop, predictor(), fam, b)), (d.name, d.payload, adv)]
    if pop.space.is_binary:
        eighths = _eighths_class(pop, 3)
        runs = [(eighths, [_squared_loss(pop.space, eighths.range_values)]),
                (_action_class(pop, "thirds", (0, 1, 2), 1), [_tie_loss(pop.space)])]
        if cls.is_binary:
            runs.insert(0, (cls, [_asymmetric_loss(pop.space),
                                  _squared_loss(pop.space, ("0", "1")), _tie_loss(pop.space)]))
        else:
            runs.insert(0, (cls, [_squared_loss(pop.space, cls.range_values)]))
    else:
        runs = [(_action_class(pop, "index", tuple(range(pop.space.size)), 2),
                 [zero_one_loss(pop.space)])]
    out += [_fields(omni_audit(pop, predictor(), losses, c)) for c, losses in runs]
    return repr(out)


@pytest.mark.parametrize("name", NAMES)
def test_lowdegree_and_omni_audits_are_pinned(name):
    assert _digest(_cold_and_warm(_lowdegree_omni_records, name)) == LOWDEGREE_OMNI[name]
