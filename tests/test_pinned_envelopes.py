"""Pinned envelopes: SHA-256 digests of unseeded CLI outputs, byte for byte.

Every invocation here is deterministic without a seed, so a refactor that
is meant to keep the outputs unchanged must keep every digest.  Input
files are written by the test and named by relative paths, because the
envelopes echo the paths they were given.  They were recorded with numpy
2.4 on x86-64 Linux; numpy's float arithmetic and its formatting are part
of what they pin.
"""

import hashlib
import json

import numpy as np
import pytest

from boolebell.cli import main
from boolebell.datasets import dataset_csv_text
from boolebell.tables import sign_rows

# pair tables with correlations 0.6, 0.2, 0.4, marginals of one triple table
# (compatible); and 1, 1, -1, which no triple table has (incompatible)
COMPATIBLE = {"f": {"++": 0.4, "+-": 0.1, "-+": 0.1, "--": 0.4},
              "fhat": {"++": 0.3, "+-": 0.2, "-+": 0.2, "--": 0.3},
              "ftilde": {"++": 0.35, "+-": 0.15, "-+": 0.15, "--": 0.35}}
INCOMPATIBLE = {"f": {"++": 0.5, "+-": 0.0, "-+": 0.0, "--": 0.5},
                "fhat": {"++": 0.5, "+-": 0.0, "-+": 0.0, "--": 0.5},
                "ftilde": {"++": 0.0, "+-": 0.5, "-+": 0.5, "--": 0.0}}

INVOCATIONS = {
    "quantum-singlet": ["quantum", "--scenario", "singlet", "--a", "0", "0", "1",
                        "--b", "0.6", "0", "0.8"],
    "quantum-filter2": ["quantum", "--scenario", "filter2", "--x", "0.3", "0.1", "0.5",
                        "--b", "0.6", "0", "0.8"],
    "quantum-filter3": ["quantum", "--scenario", "filter3", "--x", "0.3", "0.1", "0.5",
                        "--b", "0.6", "0", "0.8"],
    "quantum-substitution": ["quantum", "--scenario", "substitution",
                             "--angles", "0", "60", "120"],
    "quantum-separable": ["quantum", "--scenario", "separable", "--b", "0.6", "0", "0.8"],
    "quantum-commutators": ["quantum", "--scenario", "commutators"],
    "extended-eprb-3": ["extended-eprb", "--angles", "0", "50", "130"],
    "extended-eprb-4": ["extended-eprb", "--angles", "0", "45", "90", "135"],
    "theorem-1": ["theorem", "--which", "1", "--coeffs", "1", "0.2", "-0.1", "0.3"],
    "theorem-3": ["theorem", "--which", "3", "--coeffs", "0.5", "-0.5", "0.5", "1"],
    "theorem-construct": ["theorem", "--which", "construct",
                          "--coeffs", "1", "0.25", "-0.25", "0.25"],
    "theorem-reconstruct-compatible": ["theorem", "--which", "reconstruct",
                                       "--tables", "compatible.json"],
    "theorem-reconstruct-incompatible": ["theorem", "--which", "reconstruct",
                                         "--tables", "incompatible.json"],
    "ebbi": ["ebbi", "--e", "1", "-0.5", "0.5", "-0.5"],
    "allergy-triples": ["allergy", "--variant", "triples", "--days", "101"],
    "allergy-pairs": ["allergy", "--variant", "pairs", "--days", "101"],
    "sweep-factorizable": ["sweep", "--what", "factorizable", "--mu", "uniform",
                           "--grid", "0", "180", "30"],
    "sweep-extended-eprb": ["sweep", "--what", "extended-eprb", "--grid", "0", "360", "30"],
    "sweep-leggett-garg": ["sweep", "--what", "leggett-garg", "--points", "12"],
    "dataset-3": ["dataset", "--input", "ds3.csv"],
    "dataset-4": ["dataset", "--input", "ds4.csv"],
    "extended-eprb-3-table": ["extended-eprb", "--angles", "0", "50", "130",
                              "--format", "table"],
    "quantum-substitution-table": ["quantum", "--scenario", "substitution",
                                   "--format", "table"],
    "theorem-reconstruct-incompatible-table": ["theorem", "--which", "reconstruct",
                                               "--tables", "incompatible.json",
                                               "--format", "table"],
    "ebbi-zero": ["ebbi", "--e", "0", "0", "0", "0"],
    "dataset-2": ["dataset", "--input", "ds2.csv"],
    "leggett-garg-closed": ["leggett-garg", "--omega", "1", "--dt", "0",
                            "1.0471975511965976", "1.0471975511965976", "--seed", "1"],
    # north-star grids: every CHSH quadruple of 73 and 145 angles
    "sweep-factorizable-uniform-73": ["sweep", "--what", "factorizable", "--mu", "uniform",
                                      "--grid", "0", "360", "5"],
    "sweep-factorizable-equal-73": ["sweep", "--what", "factorizable", "--mu", "equal",
                                    "--grid", "0", "360", "5"],
    "sweep-factorizable-opposite-73": ["sweep", "--what", "factorizable", "--mu", "opposite",
                                       "--grid", "0", "360", "5"],
    "sweep-factorizable-uniform-145": ["sweep", "--what", "factorizable", "--mu", "uniform",
                                       "--grid", "0", "720", "5"],
}

DIGESTS = {
    "quantum-singlet":
        "f7d23b9af9b2ac586d0fc7b59588d1ecbd339d901ca52e21e7ceb01969bfc37a",
    "quantum-filter2":
        "1a61bf85d790296f9233903ce7fe0cbd3647a383ba6cf250076de73cc71772f7",
    "quantum-filter3":
        "3415b1a6bbdf9d73f0d2c829472b7c427059a1c1b9c20876581b4f10cc485487",
    "quantum-substitution":
        "f6e7afdeb503402107bf27bffb2e7b29f235af9672a694404bee31b14bbfac74",
    "quantum-separable":
        "fe9592d40205639f70dc10acd9c7bfa0d7087933d6f4f9b2fd4b508411db330b",
    "quantum-commutators":
        "3b88ec73fab785aa62cf92b16bd94fd095472a6b60c496ad5a2bb57985680937",
    "extended-eprb-3":
        "3a58cacceeebdbfb8e676080ec33b16b135faa14647ae7ae2abed4388bdedcf3",
    "extended-eprb-4":
        "03b07a1e3f176ead320e8c0aead3c179a9245d974238a0ee4a9092f52ae363a6",
    "theorem-1":
        "c45a039d9153939ee14a37bfd7d05b5770911942b22d22935b63d1a59568d3a8",
    "theorem-3":
        "2c83cefca23fe56cff647b9bc470326022d0d60090eca87592aee7c6f2db5adb",
    "theorem-construct":
        "31b004b7d29a9e9af1f9e4cc3bd4d01aeccc7200aa3b38ef6fae481d60a4722d",
    "theorem-reconstruct-compatible":
        "6da2d53058a2a94a08211fd09788a9299446c8d0631ea01b3eda1874376c5d32",
    "theorem-reconstruct-incompatible":
        "071bd5c13b01a0f39487cdff0256b3c070f62acf9de0907c101e724478c4730c",
    "ebbi":
        "77013053aca50660ef8a23e3a9d4c480accd059744bdb96df314115fd6e28792",
    "allergy-triples":
        "e59245387c1b4c252ef1295df7717dfa5845b4d99c66087c3f9000e915afca29",
    "allergy-pairs":
        "56d0686ae9c7d58eb749ea94bad534df33f68b0aa94cfd61783b35e90c621649",
    "sweep-factorizable":
        "ba11c79f439b813eb7fc96b7581f73776c23c36c438515430a024911a2be3896",
    "sweep-extended-eprb":
        "c0607d15031e7478f1daff80a5042a2d9ff4066921362cf8046e5aa8e1fb5aec",
    "sweep-leggett-garg":
        "60ec4bbdbe6cbf28e5480ed83d19e305e9e52bfe68bfede7c6a8273da413bd3d",
    "dataset-3":
        "7370b787e4b3f7fcd86c23278ce1cb2a420558c2da08753bae575d26e80dedbd",
    "dataset-4":
        "3eda12712bb5e63b9cec8f49f244844f5e0e4676f22ac629facc9be869e1b0f3",
    "extended-eprb-3-table":
        "fc4a86cc29bac9a883cc01ebabd206a46206305513249467491573a40dbc8883",
    "quantum-substitution-table":
        "51136e68ad9a4d47ff4563ebe13506747cd0eefaf9a82f01f7f7516b93d8ef0e",
    "theorem-reconstruct-incompatible-table":
        "9c23683c0ddbacb6122a21627509c629e2b64a3b86de1c4923751a5151bbce75",
    "ebbi-zero":
        "b396348d9c582cf7d9a98aaed21f749ef0160acd0a5ba2c0669df93ea62a7a1a",
    "dataset-2":
        "0887d3f992c62faf708cd6d5e2c0aaebc8e75b855bf87afda8bacdbcc20ca976",
    "leggett-garg-closed":
        "1c6143015a4e7501a6702a73e799834f00b9739b3997dd84c8dc0c5bb015b772",
    "sweep-factorizable-uniform-73":
        "33c358ee71783b63c3179408a8d91a2c30a0b90eeb1d87c6b0626868bf3f7a4d",
    "sweep-factorizable-equal-73":
        "9a8ab9001ac291509bfae5121e022a87974d91d3b5221e46d9f2df801f08ab08",
    "sweep-factorizable-opposite-73":
        "b0d06f80da32963fb7143c11a699c6e46218e997a2a1551e671b5467b2241679",
    "sweep-factorizable-uniform-145":
        "a9851f3d6c0ecdd4f2f88ac343bee73e3f8b64f10d59113e06bb46b81c817567",
}


def write_inputs(directory):
    (directory / "compatible.json").write_text(json.dumps(COMPATIBLE))
    (directory / "incompatible.json").write_text(json.dumps(INCOMPATIBLE))
    for n in (2, 3, 4):
        # every sign pattern once, then a fixed uneven tail
        rows = np.concatenate([sign_rows(n), sign_rows(n)[: 2 ** n - 3][::-1]])
        (directory / f"ds{n}.csv").write_text(dataset_csv_text(rows), newline="")


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_envelope_is_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert main([*INVOCATIONS[name], "--out", "out.txt"]) == 0
    assert hashlib.sha256((tmp_path / "out.txt").read_bytes()).hexdigest() == DIGESTS[name]
