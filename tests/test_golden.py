"""Golden outputs: SHA-256 of what fixed CLI invocations write.

The hashes pin stdout, and the ``--json`` file where one is written, byte
for byte.  A refactor that changes any of them changes a published output.
"""

import hashlib

import pytest

from shiish.cli import main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GOLDEN = [
    (
        ["regions", "--n", "4", "--k", "3"],
        "2a3358a73d1c1dd910ed20e5ef2f42385f55316a21e15039cf8411875148e2bf",
    ),
    (
        ["regions", "--n", "5", "--k", "2"],
        "c2ed67396b87694fc7f663b73e2394655d4d25eb5af15ae930bb4422af93354a",
    ),
    (
        ["regions", "--n", "5", "--k", "3"],
        "692c1d11f4d0913b24f41f973b67c36951a98e887ea1911072c4bfb3b6ecc9ce",
    ),
    (
        ["regions", "--n", "5", "--k", "4"],
        "3b7a96de55b03ae095919887add5ff0562c25c6fdbbca3b544dd352fc40420e9",
    ),
    (
        ["regions", "--n", "5", "--k", "5"],
        "1158ee0410d02b75b3b43ce5ae032a2c1c499259eee7fe8e710b262ca6defae2",
    ),
    (
        ["regions", "--n", "6", "--k", "3"],
        "8fa9a63f9201e97064faffd9e4fa38b1b86d05ebcb5ba7e46240ff288dfa4319",
    ),
    (
        ["regions", "--n", "6", "--k", "4"],
        "4d0b1c774f4fccfb94c3b265a8695c858e8dfa75aedf42d170c3a69f700314ca",
    ),
    (
        ["regions", "--n", "6", "--k", "5"],
        "9780acc42070160c7bd1e32992f051e491426a3352365835b8b8865e2151ee5a",
    ),
    (
        ["regions", "--n", "6", "--k", "6"],
        "89b2b288cc88d95df6cd5a980d84d27f7f2e5ce770af16a22f30c93a55eecc73",
    ),
    (
        ["regions", "--n", "6", "--k", "2"],
        "d4ece4b1df97bf16fdd052ec3b63170eb985a4a9a5c35792933fbe6193523c83",
    ),
    (
        ["regions", "--n", "4", "--k", "2", "--format", "csv"],
        "ae17032073ba50a6aa38695895ee0a63aafac31d9a71e310d1255691bb5a2f67",
    ),
    (
        ["regions", "--n", "6", "--k", "4", "--format", "csv"],
        "eec3638bb0612de7159e619270d36ff4c53089bc5f9c41b8d26be0095e914e96",
    ),
    (
        ["regions", "--n", "3", "--k", "3", "--format", "text"],
        "070d30098c085ba2a2c4c77aa15b65f0b5b89f78a62461c7eddd1ec1034585f5",
    ),
    (
        ["regions", "--n", "5", "--k", "3", "--format", "text"],
        "b2c33a77dccfcc05c4ceacb9161e4c487c3adf2cb2a82bb8c7fbfc4cc7476551",
    ),
    (
        ["regions", "--n", "6", "--k", "5", "--format", "text"],
        "29d4535e8994f359c0c7b8ef1b8a8c3c557160eb8c311ddef067ad92596342d2",
    ),
    (
        ["check", "4213", "--k", "all", "--trace"],
        "0c8148d1c5989a965a7f835d2a4a35385227c2356328ea131bcd31c63f358608",
    ),
    (
        ["burn", "4213", "--k", "all"],
        "18ad30878e474a7a1af9ef7ae35948995be59a1f94944a85dd09db35e2b8e63e",
    ),
    (
        ["graph", "--n", "4", "--k", "3"],
        "776ae846b92ce17351f0dbabf0fb7bbc60e3b308483b63f88448d4e3b726524c",
    ),
    (
        ["graph", "--n", "4", "--k", "3", "--rooted"],
        "496f49ddf3dd4adb01bfc5a2edc10010e8f3efb8f7b07c65905995ad284900fd",
    ),
    (
        ["graph", "--n", "7", "--k", "2"],
        "86e6b1c97f5f5003d1c65cd02db19361046c02c2e8b7e9ad44d1a2c4c137230f",
    ),
    (
        ["graph", "--n", "7", "--k", "2", "--rooted"],
        "fb2e53f0517e5192a2c89d05b2bd027751d738ab9cd6cf88040d75b0723f619b",
    ),
    (
        ["graph", "--n", "7", "--k", "4"],
        "6ea121cc9eb31d783aa7323d367ba44b516c6e52f79ddbce48b0a5818d888c3e",
    ),
    (
        ["graph", "--n", "7", "--k", "4", "--rooted"],
        "806a6ff29630c21c372dfa3a3cc42f1de5271b6e1b2810b524ff07b7ba0c287f",
    ),
    (
        ["graph", "--n", "7", "--k", "7"],
        "40786c2584951d86d88e3d432c6a19d32433476a0f425a770594cf7cbf0426e6",
    ),
    (
        ["graph", "--n", "7", "--k", "7", "--rooted"],
        "a93acf051b4766058ed22ee47ccba6b3b861788a7fb9d20c319608e59020801a",
    ),
    (
        ["count", "--n-max", "5"],
        "0b028f2c098b3df74c8545c11d2a66e698a1e9ebaef25537c7405f8f49e80e2a",
    ),
    (
        ["count", "--n-max", "6", "--format", "json"],
        "1ac3fb008ef71d10126293c4c6e6f3b6466a96c5b5c954607a1b5dec39c0c97c",
    ),
]


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)


@pytest.mark.parametrize("argv,stdout_sha", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_is_golden(capsys, argv, stdout_sha):
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_sha


def test_verify_report_is_golden(capsys, tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--n-max", "4", "--json", str(report)]) == 0
    out = capsys.readouterr().out.encode()
    assert sha256(out) == "33857425d1bbaa39939f671738b553d4b7b78cd61307e350fd0b6ab3c086a53f"
    assert sha256(report.read_bytes()) == (
        "bec1f5136aced1c65fa65f613d70f7ad231b3bde1b267a76713fa3cb555520a8"
    )


def test_benchmark_verify_report_is_golden(capsys, tmp_path):
    # the bytes of the benchmark's verify_n5 workload
    report = tmp_path / "report.json"
    assert main(["verify", "--n-max", "5", "--json", str(report)]) == 0
    out = capsys.readouterr().out.encode()
    assert sha256(out) == "4ee709dec41fc5d06d5da5f98855db5b24db3f854c1b83f9479b1ff3d9631d15"
    assert sha256(report.read_bytes()) == (
        "39b2a8b156500d219501e5db4cbeeb28ff12a0f45c9b8bf144ff3f3606ac6f36"
    )
