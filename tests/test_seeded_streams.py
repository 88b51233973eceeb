"""Pinned seeded streams: SHA-256 digests of seeded outputs, byte for byte.

The determinism tests elsewhere compare two runs of the same code; these
digests compare against recorded outputs, so a change to how events are
generated, stored, filtered or written that alters a single byte fails here.
They were recorded with numpy 2.4 on x86-64 Linux; numpy's generators and
its float formatting are part of what they pin.
"""

import hashlib

import numpy as np
import pytest

from boolebell import pipeline as pl
from boolebell.cli import main
from boolebell.datasets import DichotomicDataset, write_dataset_csv

SEED = "2009"
INF = ("inf",)
JITTER = ("0.3", "--jitter", "1.0", "--jitter-exponent", "2")

# (source, window args) -> (envelope digest, --events-out digest)
PIPELINE_DIGESTS = {
    ("singlet", INF): (
        "9fd769348c4354156e94a68c3c0a7a4eaa583527ad139bfedee65fb0c6d58a27",
        "b38b6ab20f7c16e4bf2f4ffcc5cba414d8ad4dc5632b9dd885a42ddc9b97fa63"),
    ("singlet", JITTER): (
        "5ef86beb21973f98ec33b8d9bc9d0331db67cdd743fd19643611ebe358463226",
        "99abdfa11f14c338b838673ea7c713d2f2ebd5e9cb3af1f90c662de34fdda7ce"),
    ("triple", INF): (
        "2db862c64aba06ca662e36d65a9c33323d6891c5573e5e35aa2f2ec2d6c0ab89",
        "c390835aee2ae8e4ac3d760b8dffb5077349b2525921bc3a997b170e1b06b65a"),
    ("triple", JITTER): (
        "085b63e04239b8b5c525d8d3f28f9e8494951b05f5a2dbcc23b4f802d4432417",
        "996c6ebb566f1298a357fe51f8ebc5f9b13b260dc0abb385fd5ae9b3dcbdc988"),
    ("pair:uniform", INF): (
        "7c0fa88e81853b8bf6674bbb7ddb09f2bcc704fa168fcf6df9d93b6a5796e8f2",
        "30e1b139b4cff5e5879276ff3c7f1eca36e8a9919f560cdfeef4fa65171e0549"),
    ("pair:uniform", JITTER): (
        "3971702e937cf3ed54cc2b028081ac5495fcfc7b067d72b96a5fb4447dc6cad5",
        "66920bc315c488bc8f9655824fb27ec7bf9998dfe46873b3eb95c183a10b6c4a"),
    ("pair:equal", INF): (
        "01abb504828ea403f713ae6c191232ef924c2c438b960bc6f282f545e2d19ac0",
        "04c6c5cab1a58d811a99c0e97156ca13f640d4296810c1303991ae30abd2d868"),
    ("pair:equal", JITTER): (
        "bfa097841c513f4a611cd7bef2afb8272d70faa0023aab622101d496d76871c7",
        "023696a2bad7b2ed1d604a2bf5ea30807cbb83dbf9e06dfcb6a21e870347e350"),
    ("pair:opposite", INF): (
        "f8acf5651df29c4bd1991ab7da4ef69413e44a5b0fabef913f16f88d3bf25d63",
        "110a1e9587ed8b3c16410e0750871720c066ae126f5c8ef17e155d6bcc71797d"),
    ("pair:opposite", JITTER): (
        "bf0830a698c07d6bd087944a666fb8d00b52b8a2fb926737a01e2ebb94482e8f",
        "e9deaa39a158169dbe6a05d265ec50631a49fb36692e6d1e2e4eb04c0bd72fba"),
}
# --window 0.3 --jitter 0.5 --jitter-exponent 2.7: a non-integer exponent
# does not take numpy's integer-power fast paths, and a jitter other than 1
# pins the scaling of the delays
FRACTIONAL_EXPONENT = ("0.3", "--jitter", "0.5", "--jitter-exponent", "2.7")
FRACTIONAL_EXPONENT_DIGESTS = {
    "singlet": (
        "0523727b9b769cf008ccefb7f60915220d0c1b44b019e7024b5a6404d7ad29fe",
        "2d99a7bd1f80f33b51d2fd8179fe20be74a6bc5faedf19910fc8c2028e6ce0c0"),
    "triple": (
        "4b3d5fe16d0325346f4e2fa72c50ebed86d90dbe9b934935d8baa7f058f90e34",
        "6de35a454b6f6a81f9133d5c8be972f756a82b331edc4338134d7e2b33ad507f"),
    "pair:uniform": (
        "9b667f74d20880f6486ca3f4894dec9ebde576431495a32bae6e5a16f7b755ae",
        "7be39d8d6f78d97f2197e1ade4c36532d117db33e2037f300ae875b2d86ff3de"),
    "pair:equal": (
        "4e94e0cf4f62d8f2dbde103148d18d774e8cf3afece2601b9458505d5d0516de",
        "22a57975a0bcd67e07f396c6ee13c9f8857cea0e2f0a66fec90bb21bc6c87dff"),
    "pair:opposite": (
        "e186e5f14368d73620d8a760f8b9bf7b97895be3bb6d85f95d99a74c39f90094",
        "17a61813164fb14e99b583fe6bb8ab9057d4a11f6a31780780382d812466fd8e"),
}
# factorizable --format csv, angles 0 60, 3,000 samples
FACTORIZABLE_CSV_DIGESTS = {
    "uniform": "9c838e88af3962d6ba7df730092bb4f65c7c8cf98d2f6ece74fadc1a93385ca4",
    "equal": "575708c83786a6a62ef0ba33ea19764204838355eb8c577137a0d3fc40a51457",
    "opposite": "71a513bfcd0a19dd96e1d0e408d053c76ea968e1cbf120cf9924bf538072a23b",
}
# write_dataset_csv of 2,000 seeded rows of arity n
DATASET_CSV_DIGESTS = {
    2: "ad0ed068ff3cd75231860984015608487709bcf039a26b759ad56a91f36a5d73",
    3: "e50ebd84794d7286cfd4c1f6f4b46092d4abe6a4a67c34d910442867126e678b",
    4: "ad626decd5887782e33a570ea5251ea318b7dec772729c0b05a362fb98974d5d",
}
LEGGETT_GARG_DIGEST = "6352de1fcc7263fa274ed8604f2a475f61107527696d53355b70f8812bdfef13"
RANDOM_SCHEDULE_DIGEST = "1c06efb79eeac1696ec8fc8d1531ba04cae45fdb83dd92d8d3985849a67928bb"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pipeline_digests(tmp_path, source, window) -> tuple[str, str]:
    out, events = tmp_path / "out.json", tmp_path / "events.csv"
    assert main(["epr-pipeline", "--source", source, "--angles", "0", "60", "120",
                 "--samples", "3000", "--seed", SEED, "--window", *window,
                 "--out", str(out), "--events-out", str(events)]) == 0
    return sha256(out), sha256(events)


@pytest.mark.parametrize("source, window", list(PIPELINE_DIGESTS),
                         ids=[f"{s}-{w[0]}" for s, w in PIPELINE_DIGESTS])
def test_epr_pipeline_outputs_are_pinned(tmp_path, source, window):
    assert pipeline_digests(tmp_path, source, window) == PIPELINE_DIGESTS[source, window]


@pytest.mark.parametrize("source", list(FRACTIONAL_EXPONENT_DIGESTS))
def test_epr_pipeline_fractional_exponent_is_pinned(tmp_path, source):
    assert (pipeline_digests(tmp_path, source, FRACTIONAL_EXPONENT)
            == FRACTIONAL_EXPONENT_DIGESTS[source])


@pytest.mark.parametrize("mu", list(FACTORIZABLE_CSV_DIGESTS))
def test_factorizable_csv_is_pinned(tmp_path, mu):
    out = tmp_path / "samples.csv"
    assert main(["factorizable", "--mu", mu, "--angles", "0", "60", "--samples", "3000",
                 "--seed", SEED, "--format", "csv", "--out", str(out)]) == 0
    assert sha256(out) == FACTORIZABLE_CSV_DIGESTS[mu]


@pytest.mark.parametrize("n", list(DATASET_CSV_DIGESTS))
def test_dataset_csv_is_pinned(tmp_path, n):
    rng = np.random.default_rng(int(SEED))
    write_dataset_csv(DichotomicDataset(rng.choice([-1, 1], (2000, n))), tmp_path / "ds.csv")
    assert sha256(tmp_path / "ds.csv") == DATASET_CSV_DIGESTS[n]


def test_leggett_garg_samples_are_pinned(tmp_path):
    out = tmp_path / "out.json"
    assert main(["leggett-garg", "--omega", "1", "--dt", "0", repr(np.pi / 3),
                 repr(np.pi / 3), "--samples", "5000", "--seed", SEED,
                 "--out", str(out)]) == 0
    assert sha256(out) == LEGGETT_GARG_DIGEST


def test_random_schedule_log_is_pinned(tmp_path):
    a, b, c = pl.Setting("a", 0.0), pl.Setting("b", 1.0), pl.Setting("c", 2.0)
    schedule = [pl.SettingPair(a, b), pl.SettingPair(a, c), pl.SettingPair(b, c)]
    raw = pl.generate_events(pl.SingletSource(), schedule, 3000,
                             pl.TimingModel(1.0, 2.0), int(SEED),
                             schedule_mode="random")
    raw.write_csv(tmp_path / "events.csv")
    assert sha256(tmp_path / "events.csv") == RANDOM_SCHEDULE_DIGEST
