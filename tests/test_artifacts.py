"""JSON artifacts stay byte-identical: each argv's --json file has a fixed
sha256.

A digest changes only when a report's content does.  Such a change is an
artifact change: say which fields moved and why, then update the digest.
"""

import hashlib

import pytest

from huckelpascal.cli import main

DIGESTS = {
    ("verify", "conj1"):
        "5aeaf4f3dc6cdc5fdd021ea0c6459bb48d2a3860ec371b19ce7ff7035f0812fb",
    ("verify", "conj1", "--mode", "specialized"):
        "83362e197a2ee9d29087a9370a9b06ed3b98976ee0db954c5e45a56a5f331118",
    ("verify", "conj2"):
        "954deecb7258b057178eb33e8bb800d20cd8e113dc4697aa2c310d48ee2864ce",
    ("verify", "conj2", "--mode", "specialized"):
        "7723dd885c0b91a17443018184869725bddd00474df8bfbbabb86e956ea1dbdf",
    ("verify", "conj3"):
        "91ed92f6de4f8ee7a81b4806ef9b35976b789258fa7a1a9bfdda770ffd4fac89",
    ("verify", "conj3", "--mode", "specialized"):
        "270c4cc2345edeefddf1f79f73c7e42d4b4ec5e199be931d0ee6a458d8fa9609",
    ("verify", "props"):
        "dd15ad051e98c8789713919438c5d6bb97cb24fa23d4562f9be8ee1494c72e4a",
    ("tables",):
        "4009bcfcd000f52d12390e3801a4df5f600e9f1da8000d617c0486c1a23cd850",
    ("formulas", "--table"):
        "daa391601c6c3cbf642a6353497ae3a008d46aa3bd09799cb5e90e1998401bb5",
    ("condense", "--n", "3", "--trace"):
        "075f5933095b67a6aa99fa2561984beb1ad8d3a7b4d8ebe14a08db2ad0dc47eb",
    ("condense", "--k", "3", "--n", "7"):
        "f1e0f8d026f1fdeb736ef39e1c3471c986999a22ede91a3dd05da53e76b6fdf0",
    ("det", "--huckel", "0", "3"):
        "111dfff9c975198b8e42ea08fb3d90ab25585d06da5563284edd8cb3785cc9a0",
    ("det", "--reduced", "0", "5"):
        "655d27884f42321b085a61c32bdf94c4e3355792b0b7663314a226156e613f7a",
    ("det", "--reduced", "2", "6", "--x", "3", "--y", "-2"):
        "3be0f5eac0e67ed717175189e931e77312ef6360c2eafb452e9089209b323f14",
    ("det", "--huckel", "0", "3", "--x", "2", "--y", "5", "--strategy", "division-free"):
        "b1c25198bbc04ff8c44e5ac541db264f94f73def939410fed0387145d15b7d75",
    ("perm", "--huckel", "0", "3", "--x", "2", "--y", "5"):
        "c9d040a27c1b3f09117fe40764fa4f7e822bd4308d1afe60f1453babeeeef396",
    ("perm", "--huckel", "1", "2"):
        "62cbeb16ba6f679aadee844d826981c7888ee054285fb18ede804bf1ee4f0190",
}


@pytest.mark.parametrize("argv", DIGESTS, ids=" ".join)
def test_artifact_digest(argv, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main([*argv, "--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[argv]
