"""The exact bytes ``generate`` returns, pinned by sha256.

Every Monte Carlo figure in the suite and the benchmark starts from these
series, so a change of RNG stream, draw order or recursion arithmetic shows
here first. The module needs numpy and pytest only, so it also runs on the
oldest numpy that pyproject.toml allows.
"""

import hashlib

import pytest

from mdhtest import KINDS, DgpSpec, generate

PARAMS = {
    "iid_normal": {},
    "ar1": {"phi": 0.2},
    "garch11": {"omega": 0.05, "alpha": 0.1, "beta": 0.85},
    "bilinear": {"b": 0.4},
}

# (kind, seed, length) -> sha256 of generate(...).values.tobytes(), default burn-in
DIGESTS = {
    ("iid_normal", 0, 7): "f407b4411a8bba91df0126b29d29433a06771b020be157e173ea45cde936ad82",
    ("iid_normal", 0, 250): "2d5eef533f2b13d59ed529cf73d0e899f4d6fef21baa1bdb33f441c014852da2",
    ("iid_normal", 2**40, 7): "f68e021cb9188d85eaf3506ebbfd90b00c73dbe805054cc99f47c2e0d7fed4dd",
    ("iid_normal", 2**40, 250): "692528f336ab4b00acba96e5c93b67a28c0e8b42f7f5bd2207e104a85b2a372c",
    ("ar1", 0, 7): "edb559af1875bb11c3985c5c3da0cb5b069bd1fcacedbc1704ac35917f7f311a",
    ("ar1", 0, 250): "233182fa2b0d42fbf306ea52aad0f12345d795e9de08b45e5c6b5966e9abe0db",
    ("ar1", 2**40, 7): "1228c232e0cc31e2ce86255337b0061ab5f37a44a70dec928dac3f72a931a91f",
    ("ar1", 2**40, 250): "40397c407144138f2148c769722facbc2c1d4b02bf030fd1338617c435b33c6e",
    ("garch11", 0, 7): "ad1b2a71fac4170d83ba07383ea06f20b68427f36299bd6c945d0ceb9bca51d7",
    ("garch11", 0, 250): "59e3efcc9355e75c5a5c35f102d1d08d180b57718273ec0cf205ac64a56a14d1",
    ("garch11", 2**40, 7): "630aec3289cc6d12b67f936abd6799ba154a572e92e9486250da0c31ef435ffe",
    ("garch11", 2**40, 250): "e30cbf6c6c223eb13f3826384b7fff3e27a45723bc504fb823606ae1a5baaaab",
    ("bilinear", 0, 7): "886ac86ae331ccfdd7d75221592d040a25ebf5fb6b47972e415f2243eebe652e",
    ("bilinear", 0, 250): "8d8bcb1c895971b914cec3e48ddb0058f0c544b7a4a60c7db0f586f7b28130bb",
    ("bilinear", 2**40, 7): "cad9181f4709c00b4327bd6d89b7e50448379fb25be42bae80379dd24fe9b66e",
    ("bilinear", 2**40, 250): "3f02d0e0c35240c47b00b50e64177a7437eb8bd446ca4dd0ff6554cf9a2e1bfa",
}


def test_every_kind_is_pinned():
    assert sorted({kind for kind, _, _ in DIGESTS}) == sorted(KINDS)


@pytest.mark.parametrize("kind, seed, length", sorted(DIGESTS))
def test_generate_bytes(kind, seed, length):
    spec = DgpSpec(kind=kind, length=length, seed=seed, params=PARAMS[kind])
    values = generate(spec).values
    assert len(values) == length
    assert hashlib.sha256(values.tobytes()).hexdigest() == DIGESTS[(kind, seed, length)]
