"""Frozen CLI output: the sha256 of stdout, or of (stdout, stderr, exit
code), for fixed requests.  A change to the solver's inputs, the seed
stream, the generators, the selftest draws or the exact rank and inverse
shows here as a changed digest.  Frozen library errors: the (exception
type, message) of calls that reach each shared input check."""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from isotropy.cli import _COMMANDS, main

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


@pytest.mark.parametrize("kind, spec", [("W", W_SPEC), ("G", G_SPEC)],
                         ids=["W", "G"])
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


# Requests whose answers go through the exact rank and inverse kernel, or
# sit next to it: (stdout, stderr, exit code) of each, hashed together.
SHAPES = {
    "8": [(8, 1)],
    "12": [(12, 1)],
    "4-2-1": [(4, 1), (2, 4), (1, 2)],
    "3-2": [(3, 1), (2, 1)],
    "5-3": [(5, 2), (3, 1)],
    "2-1": [(2, 3), (1, 2)],
}
MULTIS = {
    "MULTI": MULTI,
    "MULTI2": ('{"parts": [{"lambda": "i", "blocks": [{"alpha": 4, "m": 1},'
               ' {"alpha": 1, "m": 2}]},'
               ' {"lambda": "-1", "blocks": [{"alpha": 3, "m": 2},'
               ' {"alpha": 1, "m": 1}]}]}'),
}
STRUCTURE_COMMANDS = ("codim", "commutant", "dim", "describe", "canonical")
# multiplicity 4: sample inverts its 4 x 4 orthogonal seed
MULT4 = ('{"lambda": "1", "blocks": [{"alpha": 2, "m": 4},'
         ' {"alpha": 1, "m": 1}]}')
TOO_LONG = '{"lambda": "0", "blocks": [{"alpha": 41, "m": 1}]}'

_RUN_DIGESTS = {
    ("codim", "12"):
        "75d0cb42a4d2772dfca9814d2fb375de316c4d8810e365302337f68dc74132d2",
    ("codim", "2-1"):
        "f81fcb2072e7655308f515fc069ad7e6a1a0d277f40e80b53131dd9fe7811700",
    ("codim", "3-2"):
        "fba6d80177f81b4c0a664b961ea1fb7d3844461f578cc131463a66cff15d835c",
    ("codim", "4-2-1"):
        "88bedcdae2866d85bd079cb7f97e8a0f938efa72b492e34cea164ec773dccdfb",
    ("codim", "5-3"):
        "bd03f75dd8934024b2268f8ace9b82407209da8fcd11ad7a5bce291241bd20b7",
    ("codim", "8"):
        "9016c79bc66a20d1123e171a9a3298e77cbbad9942474e93f4a2023d9fae251d",
    ("codim", "MULTI"):
        "a37e896b7c548f654cf0be85086f7103364c2a26c85bd984f6ca63669c1b99f5",
    ("codim", "MULTI2"):
        "c15ff5ccf6ffda1522c61af48dce8c7fce979f9a6c851eb00d4e951be5e87fd6",
    ("commutant", "12"):
        "1b06aa098171f36b2311b5c54288c228ec450365c30edbb7cc380d2a0aa3898a",
    ("commutant", "2-1"):
        "e083f883a515fddecb61dfd61cb99d388c5a799786bb0039c3499766aef06ad5",
    ("commutant", "3-2"):
        "9406d3ae5f1b31845c04236d5ee3c422ffcadb300835624567dbb87dd2a7da6d",
    ("commutant", "4-2-1"):
        "95647385bf3020c2d6713d10389c29e93267467696e86f1bc57cecf2bf3b3502",
    ("commutant", "5-3"):
        "f6dd56e5b5a097069ea57fb49a4a076b7b67c84f270b66156c22f12aac72db7c",
    ("commutant", "8"):
        "3b04b8e110f0824f95f642ade4da22fc9614e310742ced9dad9e4662ec9e247f",
    ("commutant", "MULTI"):
        "4103aadc94d51a19e1ff0223dd73054794fa3bbf889353ae2368c4be3ab3ef19",
    ("commutant", "MULTI2"):
        "4103aadc94d51a19e1ff0223dd73054794fa3bbf889353ae2368c4be3ab3ef19",
    ("dim", "12"):
        "313c7368a4cb0cdce11d7c628bd873023b0dcbcdf4aa972715280fa137b25b8f",
    ("dim", "2-1"):
        "9d4fe38dab7175d38c332674ca84de1ece401d2b267e318ddb5c07e0dbddc268",
    ("dim", "3-2"):
        "dbd4faa686d48d1b56aaf13949be789b894c65d265ac7eaf16a1089a54e7da4b",
    ("dim", "4-2-1"):
        "42524890c5a354b056579ae074c9b2deab15b01640b87c984d34a816943b3cb6",
    ("dim", "5-3"):
        "bee4491e7ec23a4ae8453f738881f5b0e006a0f0f0965203abe71e5a20878e41",
    ("dim", "8"):
        "313c7368a4cb0cdce11d7c628bd873023b0dcbcdf4aa972715280fa137b25b8f",
    ("dim", "MULTI"):
        "637978340393cd26a2c0e7266a2afe8c79b13f9cda656ce340dc89dbd0547937",
    ("dim", "MULTI2"):
        "0687eb493ca7a4465cdcec32efb099b894d0e72d3de92e44dd5dcd0fd27f3df4",
    ("describe", "12"):
        "d2591f288c9167cfb7beaf074706081d0889f1f42645a3ac54b22aa917f428f6",
    ("describe", "2-1"):
        "79c89c6c9759c6e6adc0c068aee4165f90914b22c0b4e7c6578c6d5caa36d724",
    ("describe", "3-2"):
        "30a14673fdf16ae15445a2001a91056059f4c5c4ec85145af7a25c1e439bd66e",
    ("describe", "4-2-1"):
        "247b9a614b5970ad8639419530f6c2868636c7ddc1a134546588b2d12af3a18c",
    ("describe", "5-3"):
        "a3628d1923d6ae1a4cc2dc5a46aeea5557c416f77fb91fdf1e45187fd16e0ce4",
    ("describe", "8"):
        "64f710dc7fcd93ee6e0754bdec1c81b07117b603155e9566e732d4ae134e87d2",
    ("describe", "MULTI"):
        "53385a410216179a88910b5398b100c869740a8b00580b38f4c6481ef4b85c73",
    ("describe", "MULTI2"):
        "01b10299740734d17de534fe13c930240ca837cbc34105c93e4f6fae3c0c92cd",
    ("canonical", "12"):
        "b250f1cf35ac49f15afb32f9f657fa4d911984b703102c696c31e05985bdd8b7",
    ("canonical", "2-1"):
        "1881416e6c558796d90caca50b15c6d3147149e65adce9611b9f25dc38088592",
    ("canonical", "3-2"):
        "503f1a46a79cff4c5ad14dd9de80a309692ddf8a9153443177b667def10ab537",
    ("canonical", "4-2-1"):
        "2dae9c25829836ea81e67bdf030d8206740a3fb05e36585d77260358ad5e7276",
    ("canonical", "5-3"):
        "15d5f891d755b1799baaa7ca2c1f6bebb2438ec38cb44319fdbd5dd1dec57220",
    ("canonical", "8"):
        "9bf0b1d0f4d7ab03c7c6aba5c47aa904d03ce7e95d50958ccd99834f7db3d438",
    ("canonical", "MULTI"):
        "ad59afd8760f62f2138f16ed96ed4b06ba4390362e8ef782a93cd101667e2f66",
    ("canonical", "MULTI2"):
        "1825f0ffd7051b6f063801262e36b3e912bd9fdefc9490f10aeaf3c7e81be3ba",
    ("codim", "TOO_LONG"):
        "a16483a17fe7fc601823997ed84c38113630a3e6de14af494b6ebdb739beb200",
    ("sample", "MULT4", "0"):
        "cd4d0204f16bf6c86df4e722bd622832480c5aa04577fbaa66fd1463f1063151",
    ("sample", "MULT4", "5"):
        "0b45a30887d2014d5bee899480b8a81e5824d7c2ccd2009f02693b2dfcd8353a",
}


def _structure(lam, blocks):
    return json.dumps({"lambda": lam, "blocks": [
        {"alpha": alpha, "m": m} for alpha, m in blocks]})


def _runs_digest(capsys, *argvs):
    """sha256 of the (stdout, stderr, exit code) of each request in turn."""
    runs = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as stop:  # argparse refuses a bad command line
            code = stop.code
        out, err = capsys.readouterr()
        runs.append([out, err, code])
    return _digest(json.dumps(runs))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("command", STRUCTURE_COMMANDS)
def test_structure_command_bytes_at_three_eigenvalues(capsys, command, shape):
    got = _runs_digest(capsys, *([command, "--structure",
                                  _structure(lam, SHAPES[shape])]
                                 for lam in ("0", "1", "i")))
    assert got == _RUN_DIGESTS[(command, shape)]


@pytest.mark.parametrize("name", sorted(MULTIS))
@pytest.mark.parametrize("command", STRUCTURE_COMMANDS)
def test_structure_command_bytes_on_several_eigenvalues(capsys, command, name):
    got = _runs_digest(capsys, [command, "--structure", MULTIS[name]])
    assert got == _RUN_DIGESTS[(command, name)]


def test_codim_refusal_bytes(capsys):
    got = _runs_digest(capsys, ["codim", "--structure", TOO_LONG])
    assert got == _RUN_DIGESTS[("codim", "TOO_LONG")]


# codim on one long block at eigenvalues 0, 1 and i: one digest per size,
# of the three runs together.
_LONG_CODIM_DIGESTS = {
    16: "84a777b6dc0a07a2e84e6d3d009359bb2c2333de02a2e8d8de983369ca552314",
    24: "4d8d597812c731cfc8a726e3a0115cb1feb49c1d5b433ece4b50a6b3c72aa855",
    32: "b2f438eb888a9abb5f91579aca092d8f277747ca06e06dbe4f89d7ddea949889",
}


@pytest.mark.parametrize("alpha", sorted(_LONG_CODIM_DIGESTS))
def test_codim_bytes_on_one_long_block(capsys, alpha):
    got = _runs_digest(capsys, *(["codim", "--structure",
                                  _structure(lam, [(alpha, 1)])]
                                 for lam in ("0", "1", "i")))
    assert got == _LONG_CODIM_DIGESTS[alpha]


# The structure commands at eigenvalue 1/2: one digest per command, over
# every shape in turn.
_HALF_DIGESTS = {
    "canonical":
        "81f56029d0aa70f32bd7b8dc4792b54a6545e19035ba2f04ce8d5e1c139ae5d0",
    "codim":
        "59142497ff952317ebed8f0138cf0a4a64063b82873afd7aea1ad33dd49d0b00",
    "commutant":
        "197bd14de8b21f84ad411cb75f721aea8e1a2561b301b07e79721f088ae02e2f",
    "describe":
        "ba947220bc7a0740aee157fad69e766e3778a163211f020a7089720e6ae89be9",
    "dim":
        "fecc7e811068270e2ab4817d094f3cabc8d853739107590c3ced96ad82e41aea",
}


@pytest.mark.parametrize("command", STRUCTURE_COMMANDS)
def test_structure_command_bytes_at_one_half(capsys, command):
    got = _runs_digest(capsys, *([command, "--structure",
                                  _structure("1/2", SHAPES[shape])]
                                 for shape in sorted(SHAPES)))
    assert got == _HALF_DIGESTS[command]


# Requests over a size bound, each refused from the structure alone with
# exit code 2: the command and the blocks, at eigenvalue 0.
_SIZE_REFUSALS = {
    "sample n": ("sample", [(513, 1)]),
    "sample m": ("sample", [(1, 33)]),
    "commutant": ("commutant", [(1, 64)]),
    "canonical": ("canonical", [(1025, 1)]),
    "generators": ("generators", [(1025, 1)]),
    "verify": ("verify", [(1025, 1)]),
    "factor": ("factor", [(1025, 1)]),
}
_REFUSAL_DIGESTS = {
    "sample n":
        "6a62e6a490730d2e94795a718bf06bfa438e330b8b9e865ca9719658049d271d",
    "sample m":
        "6d9e3e2890e87d7ad99c3df26c7651d950041d256ea5a9b3ecc5dc528e305982",
    "commutant":
        "c37eb7d78c5e38377355677e8968455d713cebf723233dc52e1be8dab3cd9200",
    "canonical":
        "659d293932683b1c6e1f5eefac9a779feb1179ee7c268ff303a6b3ae79202cd1",
    "generators":
        "7bccbe7dc10257872470e617a563fe6ba7ea0a5ae2a0e06ed4f351dac2bfaa5e",
    "verify":
        "c72c93a26f67ad3b3656e07e801c19f53a157277d7ea8d712882bd6c6fc79927",
    "factor":
        "f1d7546d2a591c7f936935c2623283538c072bca759c05c256df86e71e8973a8",
}


@pytest.mark.parametrize("name", sorted(_SIZE_REFUSALS))
def test_size_refusal_bytes(capsys, name):
    command, blocks = _SIZE_REFUSALS[name]
    got = _runs_digest(capsys, [command, "--structure", _structure("0", blocks)])
    assert got == _REFUSAL_DIGESTS[name]


@pytest.mark.parametrize("seed", ["0", "5"])
def test_sample_bytes_with_multiplicity_four(capsys, seed):
    got = _runs_digest(capsys, ["sample", "--structure", MULT4, "--seed", seed])
    assert got == _RUN_DIGESTS[("sample", "MULT4", seed)]


# four single blocks at 1/2: sample at the last seed, and with the seed
# taken from the environment
SEVEN = _structure("1/2", [(7, 1), (5, 1), (3, 1), (1, 1)])
_SEVEN_DIGESTS = {
    "last": "5b86fc26fb488c63a342ebbd07ea60cec2b8c4614d0b211ad84ce4134fc37197",
    "env": "982d6c69c5ecf74a1ef0d30d763c9e3795466afd5c66c3f20973151827f9b7f3",
}


def test_sample_bytes_at_the_last_seed_and_through_the_environment(
        capsys, monkeypatch):
    monkeypatch.setenv("ISOTROPY_SEED", "20241025")
    got = {"last": _runs_digest(capsys, ["sample", "--structure", SEVEN,
                                         "--seed", str(2 ** 64 - 1)]),
           "env": _runs_digest(capsys, ["sample", "--structure", SEVEN])}
    assert got == _SEVEN_DIGESTS


# Requests that reach one input check each, at eigenvalues 1/2 and i:
# (stdout, stderr, exit code) of every run, hashed together.
LAMS = ("1/2", "i")
UNI_BLOCKS = [(3, 2), (2, 1), (1, 1)]
THREE_BLOCKS = [(3, 1), (2, 2), (1, 1)]
BIG_BLOCKS = [(4, 2), (2, 3), (1, 1)]
# the W spec without its group-2 skew, and the UNI params with a skew key
# that names no slot: both are refused as keys off
W_SPEC_OFF = json.dumps({"kind": "W", "skews": {
    key: value for key, value in json.loads(W_SPEC)["skews"].items()
    if key != "2,1"}})
UNI_PARAMS_OFF = json.dumps(dict(json.loads(UNI_PARAMS), skews={
    "1,1": _m(2, 2, "0", "2", "-2", "0"),
    "1,2": _m(2, 2, "0", "1/3", "-1/3", "0"),
    "3,1": _m(1, 1, "0")}))

_CHECK_DIGESTS = {
    "verify":
        "21252f7b0dd17d01264e533f3496df1860e6e11c2599a0ed7e123b980f651358",
    "factor":
        "be3d5b2411d136f37a5beb061229f258f88ddab0dfe9186089f06039a8a8db35",
    "generators_keys_off":
        "5a07df3172de1343fe22e5c8074e392ea5d5de7efacb75cdf94374dffdc55886",
    "sample_keys_off":
        "41674da6ab29eeadf3254651fb9bdec56416e58207212c7d26b1625cde27ece8",
}


def _sample_matrix(capsys, structure, *flags):
    return json.dumps(json.loads(
        _stdout(capsys, "sample", "--structure", structure, *flags))["matrix"])


def test_verify_of_a_member_and_a_non_member_bytes(capsys):
    runs = []
    for lam in LAMS:
        st = _structure(lam, THREE_BLOCKS)
        member = _sample_matrix(capsys, st, "--seed", "3")
        other = json.loads(member)
        other["entries"][1] = "7"
        runs += [["verify", "--structure", st, "--matrix", member],
                 ["verify", "--structure", st, "--matrix", json.dumps(other)]]
    assert _runs_digest(capsys, *runs) == _CHECK_DIGESTS["verify"]


def test_factor_of_a_unipotent_and_a_plain_sample_bytes(capsys):
    runs = []
    for lam in LAMS:
        st = _structure(lam, UNI_BLOCKS)
        for flags in (["--params", UNI_PARAMS], ["--seed", "0"]):
            runs.append(["factor", "--structure", st,
                         "--matrix", _sample_matrix(capsys, st, *flags)])
    assert _runs_digest(capsys, *runs) == _CHECK_DIGESTS["factor"]


@pytest.mark.parametrize("command, blocks, params", [
    ("generators", BIG_BLOCKS, W_SPEC_OFF),
    ("sample", UNI_BLOCKS, UNI_PARAMS_OFF)], ids=["generators", "sample"])
def test_keys_off_bytes(capsys, command, blocks, params):
    got = _runs_digest(capsys, *([command, "--structure", _structure(lam, blocks),
                                  "--params", params] for lam in LAMS))
    assert got == _CHECK_DIGESTS[f"{command}_keys_off"]


# The faults kept fixed as examples in test_cli_properties.py: three
# malformed requests, and four bad command lines, each on every command
# after a valid request.  (stdout, stderr, exit code) of the runs of one
# fault, hashed together.
PAIR = {"lambda": "i", "blocks": [{"alpha": 2, "m": 1}, {"alpha": 1, "m": 1}]}
EYE3 = _m(3, 3, "1", "0", "0", "0", "1", "0", "0", "0", "1")
G_PAIR = {"kind": "G", "p": 1, "t": 2, "k": 0, "F": _m(1, 1, "1")}
_MALFORMED = {
    "lambda 1/0": ["describe", "--seed", "3", "--structure",
                   json.dumps(dict(PAIR, **{"lambda": "1/0"}))],
    "rows 0": ["verify", "--seed", "3", "--structure", json.dumps(PAIR),
               "--matrix", json.dumps(dict(EYE3, rows=0))],
    "p true": ["generators", "--seed", "3", "--structure", json.dumps(PAIR),
               "--params", json.dumps(dict(G_PAIR, p=True))],
}
_BAD_FLAGS = {
    "--bogus": ["--bogus"],
    "--seed=2**64": [f"--seed={1 << 64}"],
    "--out missing": ["--out", "missing/out.json"],
    "--out empty": ["--out", ""],
    "--structure=--": ["--structure=--"],
}
_FAULT_DIGESTS = {
    "lambda 1/0":
        "08ee48d9c96e1e22f58aaecd21d6228d41cecd036777fe5ddf3ef1f415c0bfd9",
    "p true":
        "fad6381f30e256ae19cbda0889a21f1906013765bc264ab36c96d6d977b9d0a8",
    "rows 0":
        "ce6909b2994d55d7abb05e4ea2f7a72c575724fdac60c04f6a5e76ff15e0bdea",
    "--bogus":
        "fe02f4276609223b0d06855827b2199336e07e6f619d11835cde16bb50c2b6aa",
    "--out empty":
        "e048c4d8e868a6bed168f46f6876857a7406270a2d3dab21ebd487a28c6b7979",
    "--out missing":
        "e73b200475b489a1abb8efaa4ea147aa009fcc11a829f55ebe87df97ffdc011b",
    "--seed=2**64":
        "b217b8c9dd1cd634bb088d29328329238f0659e3af6b4f783bded8659be9063b",
    "--structure=--":
        "7ffe7266afd1a51089f870786e46a7b7b7349f361811fc631a2b0264e00a6d83",
}


def _valid(command):
    """A valid request for command, so that the fault is the only one."""
    if command == "selftest":
        return ["--max-n", "1", "--cases", "1"]
    argv = ["--structure", json.dumps(PAIR)]
    if command == "generators":
        argv += ["--params", json.dumps(G_PAIR)]
    elif command in ("verify", "factor"):
        argv += ["--matrix", json.dumps(EYE3)]
    return argv


@pytest.mark.parametrize("fault", sorted(_MALFORMED) + sorted(_BAD_FLAGS))
def test_fixed_fault_bytes(capsys, monkeypatch, tmp_path, fault):
    # --out names a path under the working directory, which the error echoes
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ISOTROPY_SEED", raising=False)
    argvs = ([_MALFORMED[fault]] if fault in _MALFORMED else
             [[command, *_valid(command), *_BAD_FLAGS[fault]]
              for command in sorted(_COMMANDS)])
    assert _runs_digest(capsys, *argvs) == _FAULT_DIGESTS[fault]
    assert list(tmp_path.iterdir()) == []


# The console script in a fresh process, as `python -m isotropy.cli`, with
# nothing of the package loaded before it: each command on one structure
# at eigenvalue i, the bytes sample writes to --out, and three refusals
# (an unknown command, a malformed flag, an --out in a missing
# directory).  (stdout, stderr, exit code) of each run, with the --out
# file's text after them.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
UNI_I = _structure("i", UNI_BLOCKS)
G_SPEC_UNI = json.dumps({"kind": "G", "p": 1, "t": 2, "k": 0,
                         "F": _m(1, 2, "1", "2")})
_FRESH_DIGESTS = {
    "canonical":
        "229a6e81b936df69109ec84b8d9845212c22c9c55e380896a81a913d5c6ebf74",
    "codim":
        "323f55e6c71143423ef980c967da9ec64b1735e7abf5ac861e9d67c61f911349",
    "commutant":
        "c88d9c015b5a3b60b5803d1d189165dbaf62bf4418bae3878372739a05f65395",
    "describe":
        "8df6cace6eb421fa3dca74ed0f07025fc56315fa36fc61ba6ceebc322f97aacc",
    "dim":
        "5548fef21eb7069af09bc3a8c3307ebf7504c9bf4071cf3daa5fa44725588840",
    "factor":
        "e3927752c76d5d53f8334262709526e1d444e8fbb7800c37f6349d2609dd08b1",
    "generators":
        "408fd2f93b02e6d183e84c3330a8d2dda360116a7b88c13d48790c32e34f87d3",
    "sample":
        "2535e5eec7eb1e8a00d0076a5a88c277fc55af6664ebda2486de9855b8dc6109",
    "sample --out":
        "745967000004f4b12d92bf6c414bda67b44f96f02f8f3121e7c1afdbd5a4d24c",
    "sample --params":
        "3edfd3c97d6da9ae2ddd076de73f1c59477299416c9e704b6d5a7162f7fed50e",
    "selftest":
        "b0ca300546b62793bffe62daeb04334ce7456d1472d284d606992bb8afb13e79",
    "verify":
        "44ba45f2ddb8b655da9e71fc10f6d5d60201ee42332ab3ea813d0c0a19ad9dc7",
    "malformed flag":
        "41ffe9abfcf599cce7a956435733d5994fa2675ac77357fec17f96ec0688a9ea",
    "unknown command":
        "a16e1e00e250f39154a5eb3464b42e6339c63a5e30f8decd7538e6f60d24894c",
    "unwritable --out":
        "68f9f029b7f18d966b0c02dd5181b3a7510ce0179ef77434fa36d74a7ab5af8a",
}


def _fresh(cwd, *argv):
    env = {k: v for k, v in os.environ.items() if k != "ISOTROPY_SEED"}
    proc = subprocess.run(
        [sys.executable, "-m", "isotropy.cli", *argv], capture_output=True,
        text=True, timeout=120, cwd=cwd, env=dict(env, PYTHONPATH=_SRC))
    return [proc.stdout, proc.stderr, proc.returncode]


def _matrix_of(run):
    return json.dumps(json.loads(run[0])["matrix"])


def test_fresh_process_bytes(tmp_path):
    requests = {command: [command, "--structure", UNI_I]
                for command in STRUCTURE_COMMANDS}
    requests.update({
        "sample": ["sample", "--structure", UNI_I, "--seed", "5"],
        "sample --out": ["sample", "--structure", UNI_I, "--seed", "5",
                         "--out", "out.json"],
        "sample --params": ["sample", "--structure", UNI_I,
                            "--params", UNI_PARAMS],
        "generators": ["generators", "--structure", UNI_I,
                       "--params", G_SPEC_UNI],
        "selftest": ["selftest", "--max-n", "3", "--cases", "2"],
        "unknown command": ["frobnicate"],
        "malformed flag": ["dim", "--seed", "x"],
        "unwritable --out": ["dim", "--structure", UNI_I,
                             "--out", "missing/out.json"],
    })
    # two processes at a time: the runs are independent of each other
    with ThreadPoolExecutor(2) as pool:
        runs = dict(zip(requests, pool.map(
            lambda argv: _fresh(tmp_path, *argv), requests.values())))
    runs["sample --out"].append(
        (tmp_path / "out.json").read_text(encoding="utf-8"))
    runs["verify"] = _fresh(tmp_path, "verify", "--structure", UNI_I,
                            "--matrix", _matrix_of(runs["sample"]))
    runs["factor"] = _fresh(tmp_path, "factor", "--structure", UNI_I,
                            "--matrix", _matrix_of(runs["sample --params"]))
    got = {name: _digest(json.dumps(run)) for name, run in runs.items()}
    assert got == _FRESH_DIGESTS


# Library calls that reach one input check each: (exception type, message).
_STRUCTURE_EXPECTED = ("StructureError",
                       "expected SegreStructure or MultiSegreStructure, "
                       "got str")
_SHAPE_EXPECTED = ("DimensionMismatchError",
                   "matrix is 3x3, structure needs 5x5")
_LIBRARY_ERRORS = {
    "codim_formula": _STRUCTURE_EXPECTED,
    "describe_isotropy": _STRUCTURE_EXPECTED,
    "sample_isotropy_element": _STRUCTURE_EXPECTED,
    "solution_dimension": _STRUCTURE_EXPECTED,
    "consistency_check": _STRUCTURE_EXPECTED,
    "verify_isotropy": _SHAPE_EXPECTED,
    "ToeplitzForm.extract": _SHAPE_EXPECTED,
    "conjugate_by_omega": _SHAPE_EXPECTED,
    "gen_W skews": ("ParameterError",
                    "skew keys off: missing [(1, 1)], extra [(2, 1)]"),
    "sample skews": ("ParameterError",
                     "skew keys off: missing [(1, 1)], extra [(2, 1)]"),
    "sample sub-blocks": ("ParameterError",
                          "sub-block keys off: missing [(2, 1, 0)], "
                          "extra [(1, 0, 5)]"),
    "free_parameter_count": _STRUCTURE_EXPECTED,
    "commutant_dimension": _STRUCTURE_EXPECTED,
    "b_diag count": ("ParameterError", "need 2 diagonal blocks, got 1"),
    "b_diag shape": ("ParameterError", "diagonal block 0 must be 1x1"),
    "b_diag not symmetric": ("ParameterError",
                             "diagonal block 0 is not symmetric"),
    "b_diag singular": ("ParameterError", "diagonal block 0 is singular"),
    "side group count": ("StructureError",
                         "B needs one coefficient list per group, got 1"),
    "side coefficient count": ("StructureError",
                               "C group 1 needs 2 coefficients, got 1"),
    "side not a matrix": ("StructureError",
                          "B coefficient (0, 1) must be a 1x1 ExactMatrix"),
    "side not symmetric": ("ParameterError",
                           "B coefficient (0, 0) is not symmetric"),
    "side singular": ("SingularMatrixError",
                      "B leading coefficient of group 0 is singular"),
    # the per-eigenvalue entry points refuse a multi-eigenvalue structure
    **dict.fromkeys(
        ["constant_data multi", "random_free_params multi", "gen_V multi",
         "gen_W multi", "gen_G multi", "generator_from_spec multi",
         "factor_unipotent multi"],
        ("StructureError",
         "CongruenceData needs a single-eigenvalue structure")),
    **dict.fromkeys(
        ["commutant_basis multi", "ToeplitzForm.extract multi"],
        ("StructureError", "ToeplitzForm needs a single-eigenvalue structure")),
    "factor_unipotent dense": (
        "ParameterError", "factor_unipotent needs a ToeplitzForm, "
        "got ExactMatrix"),
    "verify_congruence dense": (
        "ParameterError", "verify_congruence needs a ToeplitzForm, "
        "got ExactMatrix"),
    "b_diag not a matrix": ("ParameterError",
                            "diagonal block 0 must be an ExactMatrix, got int"),
    "gen_V b_diag not a matrix": (
        "ParameterError", "diagonal block 1 must be an ExactMatrix, got str"),
    "gen_G b_diag not a matrix": (
        "ParameterError", "diagonal block 1 must be an ExactMatrix, got list"),
    "gen_two_block b not a matrix": (
        "ParameterError", "diagonal block 0 must be an ExactMatrix, got int"),
    "gen_two_block c not a matrix": (
        "ParameterError",
        "diagonal block 1 must be an ExactMatrix, got NoneType"),
}


def _library_calls(lam):
    from isotropy import (CongruenceData, ExactMatrix, FreeParams,
                          GeneratorSpec, MultiSegreStructure, RandomSource,
                          SegreStructure, ToeplitzForm, codim_formula,
                          commutant_basis, commutant_dimension,
                          consistency_check, conjugate_by_omega,
                          describe_isotropy, factor_unipotent,
                          free_parameter_count, gen_G, gen_two_block, gen_V,
                          gen_W, generator_from_spec, identity, parse_scalar,
                          random_free_params, sample_isotropy_element,
                          solution_dimension, verify_congruence,
                          verify_isotropy, zeros)
    from isotropy.solver import constant_data

    lam = parse_scalar(lam)
    five = SegreStructure(lam, [(3, 1), (2, 1)])
    uni = SegreStructure(lam, UNI_BLOCKS)
    multi = MultiSegreStructure([five, SegreStructure(lam + 1, [(2, 2)])])
    small = identity(3)
    one, ones = identity(1), [identity(1)] * 3
    tilted = ExactMatrix.from_rows([[1, 1], [0, 1]])
    zero = FreeParams.zero(uni)
    skews = {(0, 1): zero.skews[(0, 1)], (0, 2): zero.skews[(0, 2)],
             (2, 1): zeros(1, 1)}
    sub = {key: mat for key, mat in zero.sub_blocks.items()
           if key != (2, 1, 0)}
    sub[(1, 0, 5)] = zeros(1, 2)
    return {
        "codim_formula": lambda: codim_formula("x"),
        "describe_isotropy": lambda: describe_isotropy("x"),
        "sample_isotropy_element": lambda: sample_isotropy_element("x"),
        "solution_dimension": lambda: solution_dimension("x"),
        "consistency_check": lambda: consistency_check("x"),
        "verify_isotropy": lambda: verify_isotropy(five, small),
        "ToeplitzForm.extract": lambda: ToeplitzForm.extract(small, five),
        "conjugate_by_omega":
            lambda: conjugate_by_omega(small, five, "to_dense"),
        "gen_W skews": lambda: gen_W(uni, skews),
        "sample skews": lambda: sample_isotropy_element(uni, params=FreeParams(
            zero.sub_blocks, zero.diag_seeds, skews)),
        "sample sub-blocks": lambda: sample_isotropy_element(
            uni, params=FreeParams(sub, zero.diag_seeds, zero.skews)),
        "free_parameter_count": lambda: free_parameter_count("x"),
        "commutant_dimension": lambda: commutant_dimension("x"),
        "b_diag count": lambda: constant_data(five, [one]),
        "b_diag shape": lambda: constant_data(five, [identity(2), one]),
        "b_diag not symmetric":
            lambda: constant_data(uni, [tilted, one, one]),
        "b_diag singular":
            lambda: constant_data(uni, [zeros(2, 2), one, one]),
        "side group count": lambda: CongruenceData(five, [ones], [ones]),
        "side coefficient count":
            lambda: CongruenceData(five, [ones, ones[:2]], [ones, [one]]),
        "side not a matrix":
            lambda: CongruenceData(five, [[one, 0, one], ones[:2]], []),
        "side not symmetric": lambda: CongruenceData(
            uni, [[tilted] * 3, ones[:2], [one]], []),
        "side singular": lambda: CongruenceData(
            five, [[zeros(1, 1), one, one], ones[:2]], []),
        "constant_data multi": lambda: constant_data(multi),
        "random_free_params multi": lambda: random_free_params(
            constant_data(multi), RandomSource(0)),
        "gen_V multi": lambda: gen_V(multi, None, {}),
        "gen_W multi": lambda: gen_W(multi, {}),
        "gen_G multi": lambda: gen_G(multi, 0, 1, 0, one),
        "generator_from_spec multi": lambda: generator_from_spec(
            multi, GeneratorSpec("diagonal_W", skews={})),
        "factor_unipotent multi": lambda: factor_unipotent(
            multi, ToeplitzForm.identity(five)),
        "commutant_basis multi": lambda: commutant_basis(multi),
        "ToeplitzForm.extract multi":
            lambda: ToeplitzForm.extract(identity(9), multi),
        "factor_unipotent dense": lambda: factor_unipotent(five, identity(5)),
        "verify_congruence dense":
            lambda: verify_congruence(constant_data(five), identity(5)),
        "b_diag not a matrix": lambda: constant_data(five, [1, 2]),
        "gen_V b_diag not a matrix": lambda: gen_V(five, [one, "x"], {}),
        "gen_G b_diag not a matrix":
            lambda: gen_G(five, 0, 1, 0, one, [one, [1]]),
        "gen_two_block b not a matrix":
            lambda: gen_two_block(3, 2, 0, one, 1, 1),
        "gen_two_block c not a matrix":
            lambda: gen_two_block(3, 2, 0, one, one, None),
    }


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("call", sorted(_LIBRARY_ERRORS))
def test_library_error_texts(lam, call):
    with pytest.raises(Exception) as info:
        _library_calls(lam)[call]()
    got = (type(info.value).__name__, str(info.value))
    assert got == _LIBRARY_ERRORS[call]


# The one block Toeplitz rule: on every partition with n <= 6 at 0, 1 and
# i, extract of a random form's assembly with each entry bumped by 1 and
# by i (the strip read back, or the exception's type, message and args),
# and to_toeplitz_coordinates of one sample per structure.  4209 cases,
# one sha256 over their outcomes, computed before the rule was shared.
_ONE_RULE_DIGEST = (
    "328e121161a3b6264700b3943d725dd256cb7b3837bea5ac42392928e96a77d9")


def _one_rule_corpus():
    from isotropy import (ExactMatrix, RandomSource, ShapeViolationError,
                          ToeplitzForm, enumerate_structures, parse_scalar,
                          sample_isotropy_element, to_toeplitz_coordinates,
                          zeros)

    def lists(m):
        return [[str(x) for x in row] for row in m.to_lists()]

    rnd = RandomSource(20261020)
    cases = []
    for lam in ("0", "1", "i"):
        for n in range(1, 7):
            for st in enumerate_structures(n, parse_scalar(lam)):
                dense = ToeplitzForm.from_sparse(st, {
                    (r, s, j): rnd.matrix(st.mults[r], st.mults[s])
                    for r in range(st.part_count)
                    for s in range(st.part_count)
                    for j in range(st.depth(r, s))}).assemble()
                for i in range(n):
                    for j in range(n):
                        for bump in map(parse_scalar, ("1", "i")):
                            unit = zeros(n, n).to_lists()
                            unit[i][j] = bump
                            changed = dense + ExactMatrix.from_rows(unit)
                            try:
                                got = lists(ToeplitzForm.extract(
                                    changed, st).assemble())
                            except ShapeViolationError as error:
                                got = [type(error).__name__, str(error),
                                       [str(a) for a in error.args],
                                       error.row, error.col]
                            cases.append(got)
                q = sample_isotropy_element(st, rnd=rnd)
                cases.append(lists(to_toeplitz_coordinates(st, q).assemble()))
    return cases


def test_the_one_block_toeplitz_rule_corpus():
    cases = _one_rule_corpus()
    assert len(cases) == 4209
    assert _digest(json.dumps(cases)) == _ONE_RULE_DIGEST
