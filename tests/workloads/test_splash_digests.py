"""Pinned digests of every SPLASH kernel's simulated outcome.

``tests/mp/test_fast_equivalence.py`` drives the *same* kernel generators
on the engine and on its oracle, so a change to a kernel's arithmetic or
op stream passes it unnoticed.  These digests pin what each kernel
produces: one SHA-256 per kernel x processor count x system kind over

- the ``MPResult`` (finish times, op counts, lock and barrier waits);
- the global and per-node ``AccessStats``, ``by_level`` sorted by name;
- the final numeric state of the kernel (dtype, shape and raw bytes of
  each array).

Sizes are perfbench's ``tiny`` splash sizes.
A kernel rewrite that is meant to be exact must leave every digest
unchanged; one that changes results must re-pin them here and say why.
One input goes through BLAS: water's ``delta @ delta``.  A BLAS build
that sums in another order changes that kernel's bits, and its digests
would need re-pinning on it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.mp.system import AccessStats, SystemKind
from repro.workloads.splash import KERNELS

SIZES = {
    "lu": {"n": 8},
    "mp3d": {"particles": 64, "steps": 2},
    "ocean": {"n": 12, "iterations": 2},
    "pthor": {"gates": 64, "steps": 4},
    "water": {"molecules": 8, "steps": 1},
}
# The arrays that hold each kernel's final numeric state.
STATE = {
    "lu": ("matrix", "original"),
    "mp3d": ("positions", "velocities"),
    "ocean": ("grid",),
    "pthor": ("outputs", "fanin"),
    "water": ("positions", "velocities", "initial_positions"),
}
PROCS = (1, 2, 4, 8, 16)
CASES = [(name, kind, procs) for name in sorted(SIZES)
         for kind in SystemKind for procs in PROCS]


def _stats(stats: AccessStats) -> dict:
    return {
        "reads": stats.reads, "writes": stats.writes,
        "local": stats.local, "remote": stats.remote,
        "upgrades": stats.upgrades, "recalls": stats.recalls,
        "by_level": sorted((level.name, count)
                           for level, count in stats.by_level.items()),
    }


def run_digest(name: str, kind: SystemKind, procs: int) -> str:
    kernel = KERNELS[name](**SIZES[name], seed=0)
    result, system = kernel.run_on(kind, procs)
    record = {
        "finish_times": result.finish_times,
        "ops_executed": result.ops_executed,
        "lock_wait_cycles": result.lock_wait_cycles,
        "barrier_wait_cycles": result.barrier_wait_cycles,
        "stats": _stats(system.stats),
        "node_stats": [_stats(s) for s in system.node_stats],
    }
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    for attr in STATE[name]:
        array = np.ascontiguousarray(getattr(kernel, attr))
        digest.update(f"{attr} {array.dtype.str} {array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


PINNED = {
    "lu/integrated/1":
        "5b62e26bfbf411d5a49f2ae6ffb8338ce22b85bfa009a0bcc74b37964415f765",
    "lu/integrated/2":
        "0b9caf9d3c990160fb44becce9b2c6bfe5bbb1fa00a311a60380a0685af8bdd0",
    "lu/integrated/4":
        "ddcb04b6ac6a7af7f606baa4d2b71a45173fc242e2bde0c890fee39530706a5b",
    "lu/integrated/8":
        "e783d30aa2d28baa74e6d265a88442a5b033b2dc7ae7160c63ee43c397aaf796",
    "lu/integrated/16":
        "e41bd2eee933fe32b35b13fbe243833fdc4710bed2f3fc5ce3e1ef1803f4641a",
    "lu/integrated-no-victim/1":
        "5b62e26bfbf411d5a49f2ae6ffb8338ce22b85bfa009a0bcc74b37964415f765",
    "lu/integrated-no-victim/2":
        "f09e0bca5db63eab5af5b21fc4bc23093032d9ef719c81cf58346072f0c69f09",
    "lu/integrated-no-victim/4":
        "51f00e09c10c138b72529a884365c7a640d67c60c174075550d6ce56c4389d5f",
    "lu/integrated-no-victim/8":
        "4819766bf2fbae3dcd06e258a16f8e9749196fbeee3903a31e103e5bb8f6e8a5",
    "lu/integrated-no-victim/16":
        "e7b2129d828b030bc15d5b10a5be616b0016d2e053cd8cde4587e2ba812641a1",
    "lu/reference/1":
        "3fcdefcea4211362b1966fee8400e41483192eefe43e5c750359517e7bbcffa7",
    "lu/reference/2":
        "bea68fad37d0bc03e86afbee8c5bfe63f2b19ade2f72d4260b02f76886b9871e",
    "lu/reference/4":
        "20c58087acccb1a97c5e677d218bd149e30338f06d21d3589a7679b8aa4d838f",
    "lu/reference/8":
        "f458a813d7f84e17072a0b9b0873d561822d8209f1dd88f2c7b782aef00ffab2",
    "lu/reference/16":
        "4efebdb3ae16ae28e48a8fdaa1417157895a33ce21ad6ad74b6ec6d047d37e99",
    "lu/scoma/1":
        "5b62e26bfbf411d5a49f2ae6ffb8338ce22b85bfa009a0bcc74b37964415f765",
    "lu/scoma/2":
        "e2b9d2fdc719a9d5b0e103c6571794ac23008a583d1ee1232cb17a20a1a94e5f",
    "lu/scoma/4":
        "eeb5ea72980455db7311f62a7e24e850d833a3f87ebd2fdc9e38ed1b47940d94",
    "lu/scoma/8":
        "33870f3ea8975bdc06d58b3d8019db0e56b612f137381a000f1eee4b9a0aa742",
    "lu/scoma/16":
        "1d12cf5fb9d8ed15ad4faebaab9b13f49f637e621a6402efa37bc082899ec561",
    "mp3d/integrated/1":
        "4572a0a6da925dcd64c3d9dd9e7027c7060452fad4471913e69a8221d9597cbd",
    "mp3d/integrated/2":
        "1f5901a01a5926c422b9d83547ba2bacd7bc6e2b285fee8d94e466d007669cd2",
    "mp3d/integrated/4":
        "a82d061e93827aab074c4249c82349de0175e3f4c49a3ac42c20a23bf4aa11f2",
    "mp3d/integrated/8":
        "4b1935b78866d0a27b7252750a9a3d8b255b202dfa79c5989d56b8423cd54c37",
    "mp3d/integrated/16":
        "55c19c2c79eca7b795028e0edd1665dd008c46d5ba23ffe7f6c597b6ddf3ec79",
    "mp3d/integrated-no-victim/1":
        "4572a0a6da925dcd64c3d9dd9e7027c7060452fad4471913e69a8221d9597cbd",
    "mp3d/integrated-no-victim/2":
        "e196f4e51b8a80acb962c56af8c51799ae1530c8c7f5dfe58f482087ceb1ac6e",
    "mp3d/integrated-no-victim/4":
        "7e76c7e69a7da2f2680c78e429639642dd420b5c076913bcfba6d5a10ba734d0",
    "mp3d/integrated-no-victim/8":
        "198ca413413cd4027ad1f1231eb56410b26f088cebf1f895960a18c5cf41fe39",
    "mp3d/integrated-no-victim/16":
        "eb53b796b7adc167ee5a62fae6b49e07f2551337e474cd9b49dac45fd8c13fa4",
    "mp3d/reference/1":
        "e55db9adde4988cc109abd2b6aafeffae49e5df2bd568cd2408f625bec2abed2",
    "mp3d/reference/2":
        "b6a90bcbc408ff9052532e7b3bffb4d29105e369d358bee03b4aaf3e48c90e9a",
    "mp3d/reference/4":
        "cd8458b1b5ffef26a7b7adf3906dfbd8fbf39ac55cf4311fe9a55fc3f5f67512",
    "mp3d/reference/8":
        "f1e9f286ebbe0483ab065511be6f06fadd183359fd03d8b156f9463d0047fcbc",
    "mp3d/reference/16":
        "b545834b9837cf719b9b29ad57d4b09e63ddd289a54bee1d7d5c4cf588de641c",
    "mp3d/scoma/1":
        "4572a0a6da925dcd64c3d9dd9e7027c7060452fad4471913e69a8221d9597cbd",
    "mp3d/scoma/2":
        "7ff69e64e027cdc99d6878f6c397e600e5defa3ed798b18df5da6a189922f566",
    "mp3d/scoma/4":
        "7e4b58367099ac71bcb7276ffd7f2f71c4b7aa773edbcc44fe473eea5972d140",
    "mp3d/scoma/8":
        "f91de779eec35dbefd35dabaee442c1a6d0fea5e32cf42bfd1fe97b7823347a1",
    "mp3d/scoma/16":
        "6d71a9d9980c3b1dea0f306c2d470293528a8e1281032e740dfe89f0816e188d",
    "ocean/integrated/1":
        "d7fcd7e3c6d91b15846bd98470b30aa8b8f3d0b9d510af8bfff1035f730d9c41",
    "ocean/integrated/2":
        "1025b9cb7f0bb1dde8d2c505baa0cc539fdaa0acd2b6f34434c13fc56b0cb82b",
    "ocean/integrated/4":
        "93a6a90ffcd5b3785baeb3390a023cac5879abb4e1173cbf34e78857fa256e86",
    "ocean/integrated/8":
        "8a1a1f4f0f0eb29ce21d45cad086ecdbedebc3fec264b1455bc4907a61d7a2cc",
    "ocean/integrated/16":
        "49553120fb8f083c47f37cd4f372cdd014266c9fb6368d90d0d351e328d023ad",
    "ocean/integrated-no-victim/1":
        "d7fcd7e3c6d91b15846bd98470b30aa8b8f3d0b9d510af8bfff1035f730d9c41",
    "ocean/integrated-no-victim/2":
        "3cc92c0f61a7652049d211cdab68bb8f438c106d38a9995928104e70f58aa9b6",
    "ocean/integrated-no-victim/4":
        "4fe7328b48aa8697e46ac34ee4bb5267cb70f8d64d39735e090092ab1dffa04e",
    "ocean/integrated-no-victim/8":
        "a017306256d4a7471fea09fc1e693b45f74e0e612e074b5707997bd0c2fb213a",
    "ocean/integrated-no-victim/16":
        "d0f6f14c8328fc34ab8fc0021e9931680aa397de54831bbf98946420abe4aa10",
    "ocean/reference/1":
        "2f30215d44606540f4d8b6ffaf2c0164b405c8780f9977695a702403871c02b3",
    "ocean/reference/2":
        "32a640bb8da89bb3a6d993615f5a8d4b20f86b06b0c87e6dff61de19f9861150",
    "ocean/reference/4":
        "5c28cde5208620eac435db57344fc490d9424ee80f94eec33e910f1768a994e5",
    "ocean/reference/8":
        "b256f717b60cb9ca78343aefdfb7c463b421a6da25be0496409aeae936a64cd1",
    "ocean/reference/16":
        "aeb4679fa8d177bb8926e2622a83968c7c89e33d670d382cc9e85fe1e3bcf890",
    "ocean/scoma/1":
        "d7fcd7e3c6d91b15846bd98470b30aa8b8f3d0b9d510af8bfff1035f730d9c41",
    "ocean/scoma/2":
        "128e5b9738c1e85f1a67694f945c84c6eb02dfbdefd2b1fc1cb6d14fdcb8a8ce",
    "ocean/scoma/4":
        "e0be6bb85123312eacb71b2ac063af369b12e9cf204966147bf1cfd6ef564628",
    "ocean/scoma/8":
        "87e0e7708f2e18644624b46bab251246feb43a8fd69da6ed56ff4c8f1f93e1ed",
    "ocean/scoma/16":
        "fd3fe327aa0b6967c8d044b50a1b19195f8f7fa4d43cafeea08cfeedd4f708bd",
    "pthor/integrated/1":
        "b5503c29e0ee022aaa9407ae12b1e600737a836fdcdd06edc36819d7aadd63d3",
    "pthor/integrated/2":
        "9db27f2e4ca9838f8216e4436ff2de3fdb5f02ad59afebb595df678b785f9390",
    "pthor/integrated/4":
        "f5c2c125adf091b05680fcf2ec19d1bc7eda2a9dde670ff7f5e4afd139f10284",
    "pthor/integrated/8":
        "f7bb6792d857cae9157c6a0c9f0cbb55a4a330818db180f1890d54eaaff44440",
    "pthor/integrated/16":
        "ec38ec47e00d3bc4551339e4369ec3d389e0b235d1857dbf3d4c7a476ce72f7b",
    "pthor/integrated-no-victim/1":
        "b5503c29e0ee022aaa9407ae12b1e600737a836fdcdd06edc36819d7aadd63d3",
    "pthor/integrated-no-victim/2":
        "2c5798a5c1b7f21eabaedc418d96832a9700a33603b4196a86ddd766fd905b22",
    "pthor/integrated-no-victim/4":
        "8adc75cab171132d762672521762cd5a02523a6a5392ea2c63acbd255dd35b1b",
    "pthor/integrated-no-victim/8":
        "79d2a6f253f0a3a9f5d6be8a48eda55e504525d6b664d5795914d286394c86b9",
    "pthor/integrated-no-victim/16":
        "d1a2e5878425c11996778c52782c56a1b8095401719467cad90d8c7ffddd368b",
    "pthor/reference/1":
        "2d575ced8b5e86e94fae042a26753c48beb64983d936a2779cffb808f8db4560",
    "pthor/reference/2":
        "6067b951925bc1b5a420662ea4b6215a8c40acc28872ce8f94a5a57a4549e1de",
    "pthor/reference/4":
        "39dba313cbf786ae855048a7725fffbea8ce4c0e27f226a91033feea583364eb",
    "pthor/reference/8":
        "908aee7044f680c63835c6042ffb8bcd6d79275da7d61ed66b2f686a6d6f17bf",
    "pthor/reference/16":
        "50eed71b1efa5d234c0587f953c7af93699fb1cd2f768961e3cda95675027ffd",
    "pthor/scoma/1":
        "b5503c29e0ee022aaa9407ae12b1e600737a836fdcdd06edc36819d7aadd63d3",
    "pthor/scoma/2":
        "1c1cbf52fdd59b1e4d1e153f946387c09a8fd205d774888eaa8f39351d3f34f1",
    "pthor/scoma/4":
        "dcb6f86eb649fd165337b1e07b68d7648d7c5a55dc249220eb310aefd60523fd",
    "pthor/scoma/8":
        "416bc19a6f5fc3b71430df7b9b0d3a919c6ca4c48dd088666fbaaa74321dd8fb",
    "pthor/scoma/16":
        "5c8882fe47fe67aa782311e6f169bf478d8be16a0d94b50429c1c76a371acdd5",
    "water/integrated/1":
        "e496e75d0455739020d825678426cdb38ea65bca79a7c414542d7435bc03b70d",
    "water/integrated/2":
        "2775eeb3d64cfd5b1a3ac657baa9ed66b12c26ec5eb11507fbd1266c59166c7a",
    "water/integrated/4":
        "e374bf7c12d6a53489b02aa15e9bbe8bbb17c1da4e8258195abbab2e86f9f158",
    "water/integrated/8":
        "221c667ff7186f1f3dcab2e024f3ff427d35f11d3e52bd2e82a7506e736c7e9d",
    "water/integrated/16":
        "29433d438589581935ebda3974fe5abf9d4f1093c26bb37ed954cfaaccfdadc3",
    "water/integrated-no-victim/1":
        "e496e75d0455739020d825678426cdb38ea65bca79a7c414542d7435bc03b70d",
    "water/integrated-no-victim/2":
        "d4d5ea79ffae57956cf5f9a8829a99d9f72891542678b6b572456e8b6043bc99",
    "water/integrated-no-victim/4":
        "8f50bd4ca40528fa00c524b242b3cb9d205a3c8e72717278267edce4fca34a9d",
    "water/integrated-no-victim/8":
        "ef228d2fc96390a11b39479b8277885ae90a1fc5759023cdc656643fcfcbb4b5",
    "water/integrated-no-victim/16":
        "f005759955363fb74f0a74b531c9faded7ec05d4ecf1f00dde10632113f9e47a",
    "water/reference/1":
        "51cd24522b843cc5f2bfacd2775ee63a2c7eaadffcdc680d174fd6e539761664",
    "water/reference/2":
        "79ae66aec93e9df3ad55d5f6d8b9d46fe9898db87563556897c1b840dd791533",
    "water/reference/4":
        "4cbacf2ab800d76463b264d0118e662af281e8c7b2ff277cd23577ec9dd6e6f3",
    "water/reference/8":
        "43ad6176cfe8edc211371cf0f4e8a8277dcbf2290ef4e309c56c49e7ed99672d",
    "water/reference/16":
        "900a54d4557cce7afcbececdaa9d26acd5c2e09edbfd379aa2cf62e000077ddb",
    "water/scoma/1":
        "e496e75d0455739020d825678426cdb38ea65bca79a7c414542d7435bc03b70d",
    "water/scoma/2":
        "9e35017f1e2eea1eaffa202a5746dd9b80aca0be0d4b1a97223808777aa3fb0d",
    "water/scoma/4":
        "7b87cd2443843fb9b0aba97f3e33ad24cb09fe235aea1e74190a346c0d4d78d9",
    "water/scoma/8":
        "5d8b9c7901125fba04b1ead686c3628a7a2701251d2327a72ba548681e8e977f",
    "water/scoma/16":
        "a1efa3d35a442b767d5b2d56024bd2f8078e67d68e682baf53e0a21c07c0e9de",
}


@pytest.mark.parametrize(("name", "kind", "procs"), CASES,
                         ids=lambda v: getattr(v, "value", v))
def test_kernel_outcome_matches_pinned_digest(name, kind, procs):
    assert run_digest(name, kind, procs) == PINNED[f"{name}/{kind.value}/{procs}"]
