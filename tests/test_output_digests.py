"""Every CLI output, byte for byte, against digests recorded from an earlier engine.

Each run is a `cartanss` command: `validate` and `pages` in both formats on
every sample model, and `examples --run` in both formats on every card plus
`group_torus:5`, `group_torus:7` and `weighted_hopf:3`.  Two models built
here are written to a file and run through `pages --format machine`:
su(2) + su(2) over the 2-torus, whose Z_r is a whole filtration prefix in
some cells and a proper kernel in others, and `group_torus:10`, where d = 0
and every Z_r is a prefix.  A run's digest is the sha256 of the exit
status, stdout and stderr, so a change that alters any report, message or
exit code fails here.  The benchmark's machine reports
are pinned separately by `test_reference_digests.py`.

To re-record after an intended output change, print the new table with

    PYTHONPATH=src python tests/test_output_digests.py

and paste it over DIGESTS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from cartanss.cli import main, save_model_file
from cartanss.library import MODEL_NAMES, get_model, su2_lie
from cartanss.model import BasicComplex, EquivariantModel
from oracles import direct_sum

SAMPLES = Path(__file__).resolve().parent.parent / "sample_models"


def _su2_pair_over_the_2_torus() -> EquivariantModel:
    torus = BasicComplex.build([("1", 0), ("a", 1), ("b", 1), ("ab", 2)])
    return EquivariantModel("su2_pair_t2", direct_sum(su2_lie(), su2_lie()), torus)


# models written to a file for their run, by the file name the run gives
BUILT = {
    "su2_pair_t2.json": _su2_pair_over_the_2_torus,
    "group_torus_10.json": lambda: get_model("group_torus", 10).model,
}


def runs() -> list[tuple[str, ...]]:
    """The argument lists, sample files named relative to sample_models/."""
    out = []
    for path in sorted(SAMPLES.glob("*.json")):
        out.append(("validate", path.name))
        for fmt in ("table", "machine"):
            out.append(("pages", path.name, "--format", fmt))
    for spec in (*MODEL_NAMES, "group_torus:5", "group_torus:7", "weighted_hopf:3"):
        for fmt in ("table", "machine"):
            out.append(("examples", "--run", spec, "--format", fmt))
    for name in BUILT:
        for fmt in ("table", "machine"):
            out.append(("pages", name, "--format", fmt))
    return out


def digest(args: tuple[str, ...]) -> str:
    """sha256 of the exit status, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for a in args:
            if a in BUILT:
                path = str(Path(tmp) / a)
                save_model_file(BUILT[a](), path)
                a = path
            elif a.endswith(".json"):
                a = str(SAMPLES / a)
            argv.append(a)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    text = f"{status}\n{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


DIGESTS = {
    "validate heisenberg_invalid.json":
        "00d3f8c4b08fdca49aaf2b6424c74855e9dec183411eaeaa31fbf33d64c7a326",
    "pages heisenberg_invalid.json --format table":
        "23bcdce55910ee0267c9e329cfd64aa01af767b38443f5ae282103080b1eaf3a",
    "pages heisenberg_invalid.json --format machine":
        "23bcdce55910ee0267c9e329cfd64aa01af767b38443f5ae282103080b1eaf3a",
    "validate hopf.json":
        "7984d81a7d2976287d81f641d1e8a901e5725f68025bccaaccd4003228c284b8",
    "pages hopf.json --format table":
        "6ebabb9a569094def43cc47f8d37ac1c07d3cd2749d62270f3d0c68dc6b21310",
    "pages hopf.json --format machine":
        "26e8f98732f1221ca10619761d1b0115e9ae5ca5858368d55d5c6513acf7411a",
    "validate torus_d3.json":
        "fb3c1962f8b6065b09673762720026d580fdd178fcdacfa1d4fe6cbc0b921bec",
    "pages torus_d3.json --format table":
        "c13fd86dc1b4238e6783410c0d6c42cdbea4b3db3e433f3be956810965ba96a9",
    "pages torus_d3.json --format machine":
        "7419080f6a4fda5c9e7a8eb58e04e0aa129310c5f26bfe956af09ee4d7ae0ca4",
    "validate torus_product.json":
        "77f2cf9a56a36759ad9892800f6798bf1b3922f5f43f9052c9064ba97793aa24",
    "pages torus_product.json --format table":
        "85be55472cab84407675ff3bccf12ae6552475533c048fd8ac8e561f83ab4b75",
    "pages torus_product.json --format machine":
        "787c84deeeedece433c377f03c9ab6a89d2bc69eda74cbf546ec15087fa18407",
    "validate weighted_hopf_3.json":
        "732a2c3f69065e58cbccef3c2056335ad58245ad65c3ae9fcde6cb66d2b022c2",
    "pages weighted_hopf_3.json --format table":
        "616224823239ce8777bc6a437b7d2d4ee686c64625391508076d3ee47b9d800a",
    "pages weighted_hopf_3.json --format machine":
        "a24d00102ea2733c57b46ae2123ec1cc36bee539811e6a0c2f228b1299bbbc5c",
    "examples --run hopf --format table":
        "b8b6579daeaa0b329183ceebc0a9b4127a61ff2c0e2e375bf21de78df43f6bc1",
    "examples --run hopf --format machine":
        "41ccd823a2edbcb9bec5ed1f0be5ca3202bb3faadeb2817acf6075950af6f53d",
    "examples --run weighted_hopf --format table":
        "813205bf34bf19b9ac9096847b60df478e0bc5056e84f407502887e023fd6c43",
    "examples --run weighted_hopf --format machine":
        "3b9b9ee69226e659df0b469ec03a832a1c58cab4ac83360c31edc9988c0f0d3c",
    "examples --run kronecker --format table":
        "f3e6cdea3af31dae2f16cf96af58ad9b9e9baade84bf572381bb1f065c900a76",
    "examples --run kronecker --format machine":
        "f6fc5e32c080824d5d6ccfdb31f4f2d441617f8bee7e8e8c17403264f23de691",
    "examples --run group_su2 --format table":
        "20838b026a03c28e1d677b805842f3261bd9d0c1f5230dc5dcb15ea4611fd42e",
    "examples --run group_su2 --format machine":
        "10deddd2e69d57f5a167745e4a3d54e924d23b3c0fb65c697feb5829589038c9",
    "examples --run group_torus --format table":
        "e3a74a98d322c83ffe24015ead39976579c73e493cdf92f47176a96920274418",
    "examples --run group_torus --format machine":
        "aebc7e64e2b803fed9c703a57aca8679f51ad34bd89cf78701a420d09da974ee",
    "examples --run trivial_product --format table":
        "2986cc122ee568655f0c1ffc5ee31e8437c30fdac7a96b8611abac237356908d",
    "examples --run trivial_product --format machine":
        "b7e45fedc6db5a96560df9744a0079183fa3037458e8c7abbbceee7520f31fa9",
    "examples --run group_torus:5 --format table":
        "1f4332749a950a2ca918dc4252f4c3f90e121ccbb05ce28741b265e4d6607976",
    "examples --run group_torus:5 --format machine":
        "d57f8400a75129cdd37b5ac30b6d88931c6a043191cf083e69a41c5e99488e97",
    "examples --run group_torus:7 --format table":
        "177908fa1c869d4683ef776a2cdbdd2195fa94a2c91e22c2156e09a7b57a1309",
    "examples --run group_torus:7 --format machine":
        "f33d1d59147d3823f2d0afcd2d7293d2b86fb0926b9345e659ae7a447d68a4d5",
    "examples --run weighted_hopf:3 --format table":
        "0ce026ac6778d527a9fa235f6834e93fb33c845bf4635978b6b2d37dd0c161c4",
    "examples --run weighted_hopf:3 --format machine":
        "5d0da477840dbbdebd5e416c2ff892cca3a18cb292f3621f0310153290af2d3c",
    "pages su2_pair_t2.json --format table":
        "32abd71986083b46a45234a9aecf8b64d43ff3b2637025b890c4566f9bfad279",
    "pages su2_pair_t2.json --format machine":
        "674fd7dff0d920388a640e0c6f70d716427ae775bbdd2e95aa9bb607a21709d7",
    "pages group_torus_10.json --format table":
        "a643b2c0bb102e464e3a2649c7b1f4bf1f939298b4f2e4fb7e2fbb8e6d9e2a67",
    "pages group_torus_10.json --format machine":
        "ecc367075c93f805f65ad869f85016f3ee47e321e3a63a2613ecae6fff6225f3",
}


def test_the_digest_table_covers_every_run():
    assert sorted(DIGESTS) == sorted(" ".join(args) for args in runs())


@pytest.mark.parametrize("args", runs(), ids=" ".join)
def test_cli_output_matches_its_recorded_digest(args):
    assert digest(args) == DIGESTS[" ".join(args)]


if __name__ == "__main__":
    for args in runs():
        print(f'    "{" ".join(args)}":\n        "{digest(args)}",')
