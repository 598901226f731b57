"""Frozen CLI output: the sha256 of stdout for fixed requests.  A change to
the solver's inputs, the seed stream, the generators or the selftest draws
shows here as a changed digest."""

import hashlib
import json

import pytest

from isotropy.cli import main

THREE = ('{"lambda": "i", "blocks": [{"alpha": 3, "m": 1},'
         ' {"alpha": 2, "m": 2}, {"alpha": 1, "m": 1}]}')
MULTI = ('{"parts": [{"lambda": "0", "blocks": [{"alpha": 3, "m": 1},'
         ' {"alpha": 1, "m": 1}]},'
         ' {"lambda": "1", "blocks": [{"alpha": 2, "m": 2}]}]}')
BIG = ('{"lambda": "0", "blocks": [{"alpha": 4, "m": 2},'
       ' {"alpha": 2, "m": 3}, {"alpha": 1, "m": 1}]}')
UNI = ('{"lambda": "0", "blocks": [{"alpha": 3, "m": 2},'
       ' {"alpha": 2, "m": 1}, {"alpha": 1, "m": 1}]}')


def _m(rows, cols, *entries):
    return {"rows": rows, "cols": cols, "entries": list(entries)}


W_SPEC = json.dumps({"kind": "W", "skews": {
    "1,1": _m(2, 2, "0", "1", "-1", "0"),
    "1,2": _m(2, 2, "0", "1/2", "-1/2", "0"),
    "1,3": _m(2, 2, "0", "i", "-i", "0"),
    "2,1": _m(3, 3, "0", "1", "2", "-1", "0", "3", "-2", "-3", "0")}})
G_SPEC = json.dumps({"kind": "G", "p": 1, "t": 2, "k": 0,
                     "F": _m(3, 2, "1", "2", "3", "4", "5", "6")})
# identity seeds: the sample is unipotent, so factor accepts it
UNI_PARAMS = json.dumps({
    "seeds": {"1": _m(2, 2, "1", "0", "0", "1"), "2": _m(1, 1, "1"),
              "3": _m(1, 1, "1")},
    "skews": {"1,1": _m(2, 2, "0", "2", "-2", "0"),
              "1,2": _m(2, 2, "0", "1/3", "-1/3", "0"),
              "2,1": _m(1, 1, "0")},
    "sub": {"2,1,0": _m(1, 2, "1", "-1"), "2,1,1": _m(1, 2, "2", "i"),
            "3,1,0": _m(1, 2, "1", "0"), "3,2,0": _m(1, 1, "3")}})

_DIGESTS = {
    ("sample", "THREE", "0"):
        "b6b0e0efd4ca99b5ab65edf666299060791c66e4f1b75d99424858554bd12863",
    ("sample", "THREE", "5"):
        "91b5d951e637d6c3c9e59c426d7ec6f1c30d5b29e3aa558db4fd5f90fe0598e0",
    ("sample", "THREE", "11"):
        "5a73600cc1c2c1e7d67d71b55f9599c548227b7fd8fc0814c6ff80aea178c8b4",
    ("sample", "MULTI", "0"):
        "81bd48a9fdd56bdc9336bb279bb01b21b31d5cb8772121c89c39d737a3f066bb",
    ("sample", "MULTI", "5"):
        "f9656e10b7e1c17098e02724bb046df434492fda7ce7d535a3e13166ae4311e5",
    ("sample", "MULTI", "11"):
        "58c03e04fe141f16a768094730f0fe24841df315e3cfe1ee6b0e95b1dfd0de97",
    ("generators", "W"):
        "bedf185999ac5dfe210c9cf64eaa13541b6aad52b0161cb1055c32fdfab18a5c",
    ("generators", "G"):
        "aa2142e452f77537e384dd3b665cbc7511811fd95ad08d2af3f8b7002df3fdc9",
    ("sample", "UNI"):
        "3202e9d7d56539dee5218920c596d3ce9f0c1ed37df2e62687227b698ad51e40",
    ("factor", "UNI"):
        "f9e8b97ead3ba9e716b52a49d588aa63e0dd31e5fb6e9853fd19e473bbd50e5b",
    ("selftest",):
        "927018910b253e23573b0645e45429e559d316fe61ed78b0103cfc5ed6089cf6",
}


def _stdout(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("structure", ["THREE", "MULTI"])
@pytest.mark.parametrize("seed", ["0", "5", "11"])
def test_sample_bytes(capsys, monkeypatch, structure, seed):
    monkeypatch.delenv("ISOTROPY_SEED", raising=False)
    out = _stdout(capsys, "sample", "--structure", globals()[structure],
                  "--seed", seed)
    assert _digest(out) == _DIGESTS[("sample", structure, seed)]


@pytest.mark.parametrize("kind, spec", [("W", W_SPEC), ("G", G_SPEC)])
def test_generators_bytes(capsys, kind, spec):
    out = _stdout(capsys, "generators", "--structure", BIG, "--params", spec)
    assert _digest(out) == _DIGESTS[("generators", kind)]


def test_factor_of_a_unipotent_sample_bytes(capsys):
    sample = _stdout(capsys, "sample", "--structure", UNI,
                     "--params", UNI_PARAMS)
    assert _digest(sample) == _DIGESTS[("sample", "UNI")]
    matrix = json.dumps(json.loads(sample)["matrix"])
    out = _stdout(capsys, "factor", "--structure", UNI, "--matrix", matrix)
    assert _digest(out) == _DIGESTS[("factor", "UNI")]


def test_selftest_bytes(capsys):
    out = _stdout(capsys, "selftest", "--max-n", "4", "--cases", "8")
    assert _digest(out) == _DIGESTS[("selftest",)]
