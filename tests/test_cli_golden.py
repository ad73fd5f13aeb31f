"""Golden outputs of the CLI: SHA-256 digests of every file and of stdout.

A fixed matrix of in-process ``omma`` invocations covers every algorithm on a
multilabel file stream, a budgeted metric, the sparse top-k' path, the four
recall-based native multiclass metrics, ``regret`` over a lambda grid and
``adversarial``.  Each case digests the names and bytes of the files it writes
and its stdout, with the temporary directory replaced by a fixed token.  A
refactor that keeps these digests keeps the CLI's outputs byte-identical.

The digests were taken with numpy 2.4.6 and scipy-openblas 0.3.31 on x86-64.
Another BLAS may round a matrix product differently in the last bit and so
change a digest without any change in omma.
"""

import contextlib
import hashlib
import io
import os

import pytest

from omma.cli import main

ML = ["--labels", "{tmp}/ml.labels", "--probs", "{tmp}/ml.probs", "--m", "4"]
MC = ["--labels", "{tmp}/mc.labels", "--probs", "{tmp}/mc.probs", "--m", "4",
      "--task", "multiclass"]
RUN = ["--lambda", "1e-3", "--runs", "2", "--seed", "7", "--stride", "15",
       "--fw-iters", "20", "--out", "{out}"]

CASES = {
    **{f"run-{alg}": ["run", "--metric", "macro-f1@2" if alg == "topk" else "macro-f1",
                      "--alg", alg, *ML, *RUN]
       for alg in ("omma", "omma-eta", "greedy", "ofw", "ofw-eta", "offline-fw",
                   "topk", "thresh05")},
    "run-omma-at2": ["run", "--metric", "macro-f1@2", "--alg", "omma", *ML, *RUN],
    "run-greedy-at2": ["run", "--metric", "macro-f1@2", "--alg", "greedy", *ML, *RUN],
    "run-ofw-at2": ["run", "--metric", "macro-f1@2", "--alg", "ofw", *ML, *RUN],
    "run-kprime": ["run", "--metric", "macro-f1", "--alg", "omma", "--kprime", "2",
                   *ML, *RUN],
    "run-mc-omma": ["run", "--metric", "mc-qmean", "--alg", "omma", *MC, *RUN],
    "run-mc-ofw": ["run", "--metric", "mc-qmean", "--alg", "ofw", *MC, *RUN],
    "run-mc-greedy": ["run", "--metric", "macro-f1", "--alg", "greedy", *MC, *RUN],
    "run-mc-gmean-omma": ["run", "--metric", "mc-gmean", "--alg", "omma", *MC, *RUN],
    "run-mc-hmean-ofw-eta": ["run", "--metric", "mc-hmean", "--alg", "ofw-eta", *MC, *RUN],
    "run-mc-bacc2-offline-fw": ["run", "--metric", "mc-balanced-acc@2", "--alg",
                                "offline-fw", *MC, *RUN],
    "regret": ["regret", "--metric", "macro-f1", "--alg", "omma", "--n-grid", "30,60",
               "--runs", "2", "--m", "3", "--seed", "4", "--n-opt", "2000",
               "--lambda-grid", "0,1e-3", "--out", "{out}"],
    "adversarial": ["adversarial", "--n", "60", "--runs", "2", "--seed", "1",
                    "--out", "{out}/adv.json"],
}

# the native multiclass cases; the g- and h-means can sit at exactly 0 on
# short streams, and a digest of a constant trace misses a flipped prediction
NATIVE = ("run-mc-omma", "run-mc-ofw", "run-mc-gmean-omma", "run-mc-hmean-ofw-eta",
          "run-mc-bacc2-offline-fw")

GOLDEN = {
    "synth": "40a3d31207a287685d8cb2c46a66fc0c4198c2f6e068da292112e1a307419479",
    "adversarial": "990473cfbe25820afdf93bac9050e785d490a594db6a5847ffd5c2d095ecf482",
    "regret": "87d4dd211ef178f2138c3e62d83ea1ae928f1102f9b9889b323dc0cbb5e143c7",
    "run-greedy": "5a0a28ebb877b03ef3898f59bab55ddbdaaf9c226a53f193695c7e99de6b375d",
    "run-greedy-at2": "9263afccee23e2939f6ce06c3201bde650a9fdcdaaf0faabe79bb6aea3aaeac7",
    "run-kprime": "f07585f467144d608b5c2dddd5e8a8b2cacb9353be247ee1d9c0766e431dacec",
    "run-mc-bacc2-offline-fw":
        "8a4e05f2f6a1fe3bfbb4eeb5f909467592b38c362c80eda112ce1a1ffe9b2743",
    "run-mc-gmean-omma": "a76159c070804cc99a6bc34a017db02a02a7a5e6e9147bb8dd73d91e343869c2",
    "run-mc-greedy": "6a670e27451af984bb83c007cd4116ae9ee13fac99990bac839edbf519e97b66",
    "run-mc-hmean-ofw-eta": "9231bcf82845ea897f629d1c15d34720752b112e65a23c42f7fd79cfa969cf72",
    "run-mc-ofw": "795a057499a2c5ee2585465ff577cf670b7bcd165e8ff259cce0706ab5e3c9bf",
    "run-mc-omma": "1c16b809572e4c5d04e0c672ee281feb72905d3d06093738517e4060e0848cdf",
    "run-offline-fw": "6a132ba0b4169b4580e515ed15e5346f2332bf3c233e0088b738becd0e733e09",
    "run-ofw": "ae9a07d0630536567d3e7c356dac835d3b8baaf973227318a6e2e87c5818bc66",
    "run-ofw-at2": "661ebf87b0055293bd8a4042b87e437da16fadfdb59728e16d972572cbb5caca",
    "run-ofw-eta": "c37f06aa27aaea36811f32ea24d7630c056c312f83c2ed35f966422af6846eb8",
    "run-omma": "0aaa2083bf749339d452ce0ce953f7260b4a9e999d23b7d65a2fbbe01482a4a2",
    "run-omma-at2": "d8ccc4f5cc202cb0abe8324b4387ffcf2b632ba2976221542151cb11de675b3d",
    "run-omma-eta": "bf02770d5f3e06f207fb26a975b63b2712ebb7a26153380d10ba8b53041fb70c",
    "run-thresh05": "210f5361ab0d79a735d9e38ec7d5b9cadffd5191e3a52bee809f1709e1029ce0",
    "run-topk": "84b9ecec511b33e062fb017bd42f34dde4bf12f0d70ff535792be679a7629bd8",
}


def _digest(out_dir, stdout, tmp):
    digest = hashlib.sha256(stdout.replace(tmp, "<tmp>").encode())
    for name in sorted(os.listdir(out_dir)):
        digest.update(b"\0" + name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _main(argv):
    """Exit code, stdout and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def make_streams(tmp):
    """Write the two file streams every run case reads; digest them like a case."""
    data = os.path.join(tmp, "data")
    os.makedirs(data)
    stdout = ""
    for name, task in (("ml", "multilabel"), ("mc", "multiclass")):
        code, out, err = _main(["synth", "--out", f"{data}/{name}", "--n", "60",
                                "--m", "4", "--task", task, "--seed", "3",
                                "--noise", "0.05"])
        assert code == 0 and err == ""
        stdout += out
    return _digest(data, stdout, tmp)


def run_case(name, tmp):
    out = os.path.join(tmp, name)
    os.makedirs(out)
    code, stdout, stderr = _main([a.format(tmp=f"{tmp}/data", out=out)
                                  for a in CASES[name]])
    assert code == 0 and stderr == ""
    return _digest(out, stdout, tmp)


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("golden"))
    return tmp, make_streams(tmp)


def test_synth_outputs_match_golden(streams):
    assert streams[1] == GOLDEN["synth"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(name, streams):
    assert run_case(name, streams[0]) == GOLDEN[name]
    if name in NATIVE:
        for run in ("run0", "run1"):
            with open(os.path.join(streams[0], name, f"trace-{run}.csv")) as fh:
                psi = [line.split(",")[1] for line in fh.read().splitlines()[1:]]
            assert len(set(psi)) > 1
