"""Pinned output bytes of the commands whose answers depend on partial coset tables.

Each case writes one command's JSON with `--out`; the sha256 of those bytes
and the exit code are pinned.  The truncated covers at small limits depend on
the exact partial tables at the limit and at twice the limit (their
`radius_stable` certificate compares the two balls), so any change to the
enumeration strategy or to the standardization of a snapshot shows here.
"""

import hashlib
import random

import pytest

from localdec.cli import main

from test_cli import write_graph
from test_graphdec import necklace
from test_localcover import cube_graph
from test_multigraph import random_connected_graph


def _cases():
    """(name, graph, argv) for every pinned run."""
    out = []
    for n in (3, 4, 6):
        g = necklace(n)
        for r in (3, 4):
            for limit in (50, 500, 3000):
                out.append(("cover-necklace%d-r%d-limit%d" % (n, r, limit), g,
                            ["cover", "--r", str(r), "--coset-limit", str(limit)]))
    # limits small enough that the doubled budget changes the radius-14 ball
    for n in (4, 5, 6):
        for limit in (10, 20, 30):
            out.append(("cover-necklace%d-r3-limit%d-radius14" % (n, limit), necklace(n),
                        ["cover", "--r", "3", "--coset-limit", str(limit),
                         "--truncation-radius", "14"]))
    # the enumeration closes between 10 and 20, and at 20 before the limit
    for limit in (10, 20):
        out.append(("cover-folded5cube-r4-limit%d" % limit, cube_graph(4, fold=True),
                    ["cover", "--r", "4", "--coset-limit", str(limit)]))
    out.append(("decompose-necklace4-limit3000", necklace(4),
                ["decompose", "--r", "3", "--max-tangle-order", "2",
                 "--coset-limit", "3000"]))
    rng = random.Random(83)
    for i in range(8):
        g = random_connected_graph(rng, rng.randrange(3, 8), rng.randrange(1, 5),
                                   allow_multi=True)
        r = rng.choice((3, 4))
        for limit in (20, 200):
            out.append(("deck-group-random%d-r%d-limit%d" % (i, r, limit), g,
                        ["deck-group", "--r", str(r), "--coset-limit", str(limit)]))
    return out


def run_case(tmp_path, name, g, argv):
    """(exit code, sha256 of the written JSON) of one case."""
    inp = write_graph(tmp_path / ("%s.in.json" % name), g)
    out = tmp_path / ("%s.out.json" % name)
    code = main(argv[:1] + ["--input", inp, "--out", str(out)] + argv[1:])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


PINNED = {
    'cover-necklace3-r3-limit50': (0, 'd7ae9af90613e981f2915153411a8abac9d2effc5682a829798a9905a826f1fc'),
    'cover-necklace3-r3-limit500': (0, 'd7ae9af90613e981f2915153411a8abac9d2effc5682a829798a9905a826f1fc'),
    'cover-necklace3-r3-limit3000': (0, 'd7ae9af90613e981f2915153411a8abac9d2effc5682a829798a9905a826f1fc'),
    'cover-necklace3-r4-limit50': (0, 'd7ae9af90613e981f2915153411a8abac9d2effc5682a829798a9905a826f1fc'),
    'cover-necklace3-r4-limit500': (0, 'd7ae9af90613e981f2915153411a8abac9d2effc5682a829798a9905a826f1fc'),
    'cover-necklace3-r4-limit3000': (0, 'd7ae9af90613e981f2915153411a8abac9d2effc5682a829798a9905a826f1fc'),
    'cover-necklace4-r3-limit50': (3, '705c925002d9f851f97312b5f669f28c950b218075e53d4c83de8098626d3d8a'),
    'cover-necklace4-r3-limit500': (3, '705c925002d9f851f97312b5f669f28c950b218075e53d4c83de8098626d3d8a'),
    'cover-necklace4-r3-limit3000': (3, '705c925002d9f851f97312b5f669f28c950b218075e53d4c83de8098626d3d8a'),
    'cover-necklace4-r4-limit50': (0, '185249663874f47ef1cef7509292d2d85a316a641780b34389243709a6faae0f'),
    'cover-necklace4-r4-limit500': (0, '185249663874f47ef1cef7509292d2d85a316a641780b34389243709a6faae0f'),
    'cover-necklace4-r4-limit3000': (0, '185249663874f47ef1cef7509292d2d85a316a641780b34389243709a6faae0f'),
    'cover-necklace6-r3-limit50': (3, '74f2c6343acabd087113fad56abc6b0b9a94bc7e22960ecec1cb95c839841459'),
    'cover-necklace6-r3-limit500': (3, '74f2c6343acabd087113fad56abc6b0b9a94bc7e22960ecec1cb95c839841459'),
    'cover-necklace6-r3-limit3000': (3, '74f2c6343acabd087113fad56abc6b0b9a94bc7e22960ecec1cb95c839841459'),
    'cover-necklace6-r4-limit50': (3, '74f2c6343acabd087113fad56abc6b0b9a94bc7e22960ecec1cb95c839841459'),
    'cover-necklace6-r4-limit500': (3, '74f2c6343acabd087113fad56abc6b0b9a94bc7e22960ecec1cb95c839841459'),
    'cover-necklace6-r4-limit3000': (3, '74f2c6343acabd087113fad56abc6b0b9a94bc7e22960ecec1cb95c839841459'),
    'cover-necklace4-r3-limit10-radius14': (4, '7f3837e3e2514905919a03ac719c1b97deefba3ec379f0defac9784c995e7de0'),
    'cover-necklace4-r3-limit20-radius14': (4, 'e305b8c273ea394fca17b7e4373d14d279adadcc8da82f1e9ea5ce700293c087'),
    'cover-necklace4-r3-limit30-radius14': (4, 'acf0b87c58977cad5351731a105ddb617a1f4b1fd0230b63e1d42c0a50cc6c0f'),
    'cover-necklace5-r3-limit10-radius14': (4, 'bee117f1e94a7885c4d03b9b8acb54f994c3beae42bc5c0a539b13915fcf8701'),
    'cover-necklace5-r3-limit20-radius14': (4, '3d00732ce705979a249469b749303e3c8cf7e9b5f8008a447a055a83b5e56a7d'),
    'cover-necklace5-r3-limit30-radius14': (4, '541a8350dd6f1a16bc9494ccd420b2c03e59932216050f9761e6629cf127548c'),
    'cover-necklace6-r3-limit10-radius14': (4, '5be9bed2c6161904d4f7aabcefa9edd267973c6acb89ecc93cae7bd59c9b83d3'),
    'cover-necklace6-r3-limit20-radius14': (4, 'a019444ccf66fcd61a4835948960f1b09222642132d2c0d339213b1379a3203a'),
    'cover-necklace6-r3-limit30-radius14': (4, '2a14ad63abdb419d07c918d2ce8ce8055ee89f60def99a862a07197834219466'),
    'cover-folded5cube-r4-limit10': (4, '5dd3a86550e053b761ffb651dba0a9a5114b93910bcebec72ff7ab7ed370a8d7'),
    'cover-folded5cube-r4-limit20': (0, 'cdc7ade230c366c06df4d5ad6f486968f58d5b0bb5d9bcfda6325afc09cbc4c9'),
    'decompose-necklace4-limit3000': (3, 'c4cdcee2c064edc67b5bde7d8fdec22ef8ffb4b86fe56243d5008f86cb88fdfa'),
    'deck-group-random0-r4-limit20': (0, '0fd87871b2b9168c38f4bcddb941e7388eb52ca3c164684905ba95f31b5c4e52'),
    'deck-group-random0-r4-limit200': (0, '5cbc262c25bf60aa71e393a614b04a80aa76890c070da1bc79dce8aa1bae28e3'),
    'deck-group-random1-r4-limit20': (0, '9d3dbc38d015f4db8790f65cecd50ca6896ff3a9260fcd0a2edaa7959d2baa43'),
    'deck-group-random1-r4-limit200': (0, 'a2ba2bae45bcb3be14e8983b0a478b28f0c71dacbfb68a0dda3f23ec113e8799'),
    'deck-group-random2-r3-limit20': (0, '276ca36f5f04aece111d29178465fd5a58f018c4ed88f8d863e5d0618044e835'),
    'deck-group-random2-r3-limit200': (0, 'd807bfc14e66a76078e0097b4945fcf23929baeee79a2df79b22dbc280e76411'),
    'deck-group-random3-r4-limit20': (0, 'f5722648d2ac7eeaa8bb213a22c0333eda622456340915d078b82700908220e2'),
    'deck-group-random3-r4-limit200': (0, '72cf423d72bb1e8602792f3471240048ced335a4eef7f286f59e2c613c280e6a'),
    'deck-group-random4-r4-limit20': (0, 'f0b70467726b576d5a5fad5b4d9e35c1832577e2b36790bb15bb6f4f74d03907'),
    'deck-group-random4-r4-limit200': (0, '478de8a8b01773b5eebf74d3f65fac9a986f180ef27a72eeb66552bac34de954'),
    'deck-group-random5-r4-limit20': (0, '982a2893433da26474ba802479b341d3b63081a769c4979a609e2a124bdcf352'),
    'deck-group-random5-r4-limit200': (0, '81934ef19913f535b67531db7b7101a7da52e3edd9a186ee246234aeed81d7de'),
    'deck-group-random6-r3-limit20': (0, '0ceef893537304f2b835d26a93cf0fcfc351f34f9f691f12d27889221e52103a'),
    'deck-group-random6-r3-limit200': (0, '6dfc984a0eda4e6ecc7d3d1b50fb5decec5b46819525080b0004f4b63becc8e7'),
    'deck-group-random7-r4-limit20': (3, '526a3f1ac7212542f032a3b516d3c48ae6179ccd93253a6b8fcd7cfe251322b8'),
    'deck-group-random7-r4-limit200': (3, 'fe7ae46da2b6ded92e7c6df29d12235a189a446fcaef141b5751d4a5b84bbde7'),
}


CASES = _cases()


@pytest.mark.parametrize("name,g,argv", CASES, ids=[c[0] for c in CASES])
def test_pinned_output_bytes(tmp_path, name, g, argv):
    assert run_case(tmp_path, name, g, argv) == PINNED[name]


# `cover --r 3` with the default coset limit (100,000) and radius (10): the
# snapshots at 100,000 and 200,000 cosets that the `cover` benchmark reads
PINNED_DEFAULT_LIMIT = {
    4: (3, '705c925002d9f851f97312b5f669f28c950b218075e53d4c83de8098626d3d8a'),
    6: (3, '74f2c6343acabd087113fad56abc6b0b9a94bc7e22960ecec1cb95c839841459'),
}


@pytest.mark.parametrize("n", sorted(PINNED_DEFAULT_LIMIT))
def test_pinned_default_limit_cover_bytes(tmp_path, n):
    name = "cover-necklace%d-r3-default" % n
    assert run_case(tmp_path, name, necklace(n), ["cover", "--r", "3"]) == PINNED_DEFAULT_LIMIT[n]
