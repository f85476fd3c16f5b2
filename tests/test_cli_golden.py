"""Golden CLI outputs: exit code and SHA-256 of stdout for every subcommand.

Each subcommand runs in CSV and JSON, plus its error paths (exit 2, empty
stdout) and the gap-check counterexample (exit 1).  A change that alters
any byte a subcommand prints fails here; re-record a digest only when the
output is meant to change, and say why.
"""
import hashlib

import pytest

from psitools import sieve
from psitools.cli import main

CASES = [
    ("sieve-info --limit 1000", 0, "17935197946ee0413e757929d14e42509f356f70a1d1c0eb700631ca05e5e575"),
    ("sieve-info --limit 1000 --format json", 0, "e191faf019dd63ffd43b5313256069eaf3f5d18c28b758305430dcc65c939da0"),
    ("verify-psi --plimit 1000", 0, "29aa931b2c0985c92720e0ee6f9bd87eb8ed87c47e1dc4e1afc3dc104684bd26"),
    ("verify-psi --plimit 1000 --format json", 0, "d42421dc53b34861ec3f4cefbb28c08e479bad39832a646cb71667d790770f33"),
    # 5,133 rows: more than one 2^12-row emit chunk
    ("verify-psi --plimit 50000 --format json", 0, "f706b408b9144380e238b48e3e6636d41a5078ec428b728347b79d065d77a0ba"),
    ("verify-psi --plimit 50000", 0, "a05bcb28b1fcc5e84ff09ccc51a40b9f9995470d201ef6ef671939e6416db22f"),
    ("squarefree --x 10 --x 100", 0, "4869b2a256468a79a219a46d04120a0c820e461baca492b7501e843c95860afc"),
    ("squarefree --x 10 --x 100 --format json", 0, "eb13cfe4598dfd8b387a33b84f30fb082ace42119b9b1424c54555875c068883"),
    ("squarefree --xmax 3000 --points 5", 0, "ea655c512dd0f77f961afc2477ea460610effeb1bfe7a94be940e98192eca7ab"),
    ("squarefree --xmax 3000 --points 5 --format json", 0, "deea825288d8215907bb36ea5df9ca20a7da6e31dae32a000b3a8168e10f141a"),
    ("harmonic --xmin 10 --xmax 1000 --points 4", 0, "3682512f31febb43632190acbb5abda4b794757c21e6ec4892840b2703fa2486"),
    ("harmonic --xmin 10 --xmax 1000 --points 4 --format json", 0, "5c87cd6339b3f3475a096d137c0116b2a6dd39c68a6b9e25398c74a956a3a205"),
    ("mertens --xmin 10 --xmax 1000 --points 5", 0, "825ea151b48a665572cbdb44e38e556228b71a79bc2dce6b0e61d8528978d2dd"),
    ("mertens --xmin 10 --xmax 1000 --points 5 --format json", 0, "1d394eadbf70a42570d78e8ec445bed7ba5057942344d85d02de4118cdf1390f"),
    ("progression --q 4 --a 1 --x 100 --x 1000", 0, "52db5a407b1b288c2f9a53a8d8c58c80042c44ed654df2e3e4334036963d4b44"),
    ("progression --q 4 --a 1 --x 100 --x 1000 --format json", 0, "3eaf4db0e166c59e32f96efa463157773f1cbe45572d75ae813d25791bf43d22"),
    ("oscillation --xmax 10000 --points 4", 0, "ff293a35909675729fa7fb8ff4cc6ea4bbfb61796aac4b1bc7dd81cf004c8e5e"),
    ("oscillation --xmax 10000 --points 4 --format json", 0, "1d1540cecffc51798e5deb70dfc00cbbde45ad1f1e03b84a3007a8252954af53"),
    ("b1 --plimit 10000", 0, "925e4a65f2ff0e40b82f1949426103f12409b55e9c905a9534c3380e620aa1ae"),
    ("b1 --plimit 10000 --format json", 0, "eb227fc9f53bc8fb44b6aa8914ef2d24e40c697f6427def20ade52c1381604d9"),
    ("dusart --x 1000 --x 30000", 0, "b0ad6c4630d9e60e97e19080ef281b5f2fd55968d9302a258e6eeb47f64b9adf"),
    ("dusart --x 1000 --x 30000 --format json", 0, "a4a1530e08cc61f1a36055c533b60d6e7934cd6ba06d8ba084bba043a43536f6"),
    ("jumps --kmax 5", 0, "9371c61b6cc561805b6cc713f9ed4dca58f336d7d420a1afe69cb5183a36746e"),
    ("jumps --kmax 5 --format json", 0, "1d7a7ffc219e88797647f79eb5fce15e1005b6b458f585e4b3a877c0675eaf62"),
    # 5,000 rows of p_next and delta, over two emit chunks
    ("jumps --kmax 5000", 0, "e233360704a0f5d81b6b8bb660ac7f1dea6b585eae7bd0f1c1397279a3ee4fba"),
    ("jumps --kmax 5000 --format json", 0, "64c6a79c2348f611235bd3f58cab559ccdfa10da96ec67d35bb22312fb502f92"),
    ("extremes --xmin 10 --xmax 10000 --points 4", 0, "eb1cf2f4f4826b9d0940adbee29f82a6ad7c5d23ab9773cf3490e74d859ca554"),
    ("extremes --xmin 10 --xmax 10000 --points 4 --format json", 0, "37139d447902d994f127ea1b652125dbb47ca1e969b924d4ad9c440c15079e7f"),
    ("classify --xmin 10 --xmax 10000 --points 4", 0, "85ccf98c23862f7f5de44244fa9671dd47051c6964f0635d67fbc0223ae4ce53"),
    ("classify --xmin 10 --xmax 10000 --points 4 --format json", 0, "dd095fe36a22838876e66bcb150d96f9aebbc4647284c381707d287fcdf2ae7a"),
    ("dist-tail --x 1000 --t 1.9 --t 2.5", 0, "2faaf7927b86b625c011d014c931784d99a29704a23d55dd4a558473540bae16"),
    ("dist-tail --x 1000 --t 1.9 --t 2.5 --format json", 0, "2d8c16dcbb91581858a28b3db089214365a7039e496df66df3fb9fa84f7f23b4"),
    # JSON floats 1e-07, 2.0, 1e+16 and a 17-digit fraction
    ("dist-tail --x 1000 --t 1e-7 --t 2 --t 1e16 --t 0.1 --format json", 0, "002056ac862a45c40d6ade07dd6ea1f50a8c630c9456b14c80d0f487fbf61199"),
    # 25,997 rows of JSON floats, seven emit chunks
    ("verify-psi --plimit 300000 --format json", 0, "b708ef5296930184e3ca25e433cde7e534a2da3aaa0c02ac2348d7e10b591e4b"),
    # 155,805 rows: the primes cross the sieve's block seams at 2^20 and 2^21
    ("verify-psi --plimit 2100000", 0, "6eb2f31fcaa78323f09a7b31e4fc5d4770bbab6673edf88ef51e1d6833109d01"),
    ("verify-psi --plimit 2100000 --format json", 0, "672a9111e98057540bcbc4434b828599333e096b590e08ab377ed1dd4a82ef6b"),
    ("loglog-gap --kmax 8", 0, "a903ac60d8b5b162a4293ee2dab8e78ce393fe599b197688ff356ca8c65eb36d"),
    ("loglog-gap --kmax 8 --format json", 0, "49ecdea8977329a12c4d19f242c49b68cb68b11179ccc907dea69bafd550abcb"),
    ("loglog-gap --k 3 --k 10", 0, "bff78bb4f18cafc1c42c0e66e9a1a0e9dfe842fdca875e7cc5e4d09fb442f7cd"),
    ("loglog-gap --k 3 --k 10 --format json", 0, "679a364cfddc433b1c7800b1fe5b05d8e7d2074295ba79c76aec7e9ceb9be5ad"),
    ("gap-check --plimit 3", 0, "ff788166639c5f828f150670964228a61ce2e116ef0c2f65265b60aea38f0d7a"),
    ("gap-check --plimit 3 --format json", 0, "2118f9fb11c7f14161459c73fece8ab496888854a94563c9f66248e32e6fd50b"),
    ("gap-check --plimit 100", 1, "e99e49ea0b1b9156ba6f9187816e3b22fdf874786800fe1cc026fea2cc35480a"),
    ("gap-check --plimit 100 --format json", 1, "69ff41ac0bac03fab2996c09eadf578d2264c17d814d1e96e045a5ef527f47ed"),
    ("tail-sum --x 30", 0, "ff2d22dae272f955d302b159774ff4e3a5c0803585651c929496493335eee213"),
    ("tail-sum --x 30 --format json", 0, "10ad325395e0625609623b7b2068f4ea3d6384c92943d9bbfbad0c4cb1bc613a"),
    ("constants --no-crosscheck", 0, "7ca4027932a20bd7aa3b1be6cf9e320ec7f654ac2f6134ba7e075836a99930b4"),
    ("constants --no-crosscheck --format json", 0, "ab7cdfb884b678d74c90922b612b57a2afc60546a13e4b8421f171ca682a5cdc"),
    ("verify-psi --plimit 0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify-psi --plimit 0 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("squarefree --x 0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("squarefree --x 0 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("extremes --x 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("extremes --x 1 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("jumps --kmax 0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("jumps --kmax 0 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loglog-gap --k 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loglog-gap --k 1 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loglog-gap --k 5 --k 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("loglog-gap --k 5 --k 1 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("progression --q 4 --a 2 --x 100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("progression --q 4 --a 2 --x 100 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dist-tail --x 1 --t 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dist-tail --x 1 --t 2 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("b1 --plimit 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("b1 --plimit 1 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gap-check --plimit 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gap-check --plimit 2 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sieve-info", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sieve-info --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("harmonic", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("harmonic --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dusart --x 2300000", 0, "cae0d151fcd303a3d3f572d09b36ecfbd0ee37f354aa197c293814152a51b4c7"),
    ("verify-psi", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("no-such-op", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("line,code,digest", CASES,
                         ids=[c[0] or "<no args>" for c in CASES])
def test_golden_output(capsys, line, code, digest):
    assert main(line.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_psi_subcommands_build_no_sieve(capsys, monkeypatch):
    # extremes, classify and dist-tail stream psi from the primes up to
    # sqrt(x) and must print the same bytes without any sieve tables
    def no_tables(limit):
        raise AssertionError(f"build_sieve({limit}) called")

    monkeypatch.setattr(sieve, "build_sieve", no_tables)
    cases = [c for c in CASES
             if c[0].split()[:1] in (["extremes"], ["classify"],
                                     ["dist-tail"])]
    assert len(cases) == 11
    for line, code, digest in cases:
        assert main(line.split()) == code, line
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line


def test_verify_psi_builds_no_sieve(capsys, monkeypatch):
    # verify-psi streams its primes in blocks and must print the same
    # bytes without any sieve tables
    def no_tables(limit):
        raise AssertionError(f"build_sieve({limit}) called")

    monkeypatch.setattr(sieve, "build_sieve", no_tables)
    cases = [c for c in CASES if c[0].split()[:1] == ["verify-psi"]]
    assert len(cases) == 10
    for line, code, digest in cases:
        assert main(line.split()) == code, line
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line
