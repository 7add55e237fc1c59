"""Pinned digests of every SPEC proxy's traces and miss-rate outcomes.

The cache differential tests drive the fast engines and the
object-oriented oracles with the *same* trace, so a change to trace
generation (``interleave_blocks``, the data builders) passes them
unnoticed.  These digests pin what the Figure 7/8 pipeline produces:
one SHA-256 per proxy x seed x length over

- ``instruction_trace`` and ``data_trace`` (addresses and write flags);
- the ``figure7`` and ``figure8`` rows, as the ``repr`` of each float;
- every :class:`~repro.caches.fast.FastCacheResult` field of the plain
  and the victim D-cache column-buffer runs.

15,001 is not a multiple of any interleave block, so each generator's
final cut is covered too.  A rewrite of the trace generators or the
cache engines that is meant to be exact must leave every digest
unchanged; one that changes results must re-pin them here and say why.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.experiments import figure7, figure8
from repro.caches.fast import simulate_column_buffer
from repro.common.params import IntegratedDeviceParams
from repro.workloads.spec import ALL_NAMES, get_proxy

SEEDS = (0, 1)
LENGTHS = (4_000, 15_001)
CASES = [(name, seed, length) for name in ALL_NAMES
         for seed in SEEDS for length in LENGTHS]


def _update(digest, label: str, value) -> None:
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        digest.update(f"{label} {array.dtype.str} {array.shape}".encode())
        digest.update(array.tobytes())
    else:
        digest.update(f"{label} {value!r}".encode())


def run_digest(name: str, seed: int, length: int) -> str:
    proxy = get_proxy(name)
    device = IntegratedDeviceParams()
    digest = hashlib.sha256()
    itrace = proxy.instruction_trace(length, seed)
    dtrace = proxy.data_trace(length, seed)
    for label, trace in (("itrace", itrace), ("dtrace", dtrace)):
        _update(digest, f"{label}.addresses", trace.addresses)
        _update(digest, f"{label}.is_write", trace.is_write)
    for label, figure in (("figure7", figure7), ("figure8", figure8)):
        row = figure(trace_len=length, seed=seed, names=(name,)).rows[name]
        _update(digest, label, [repr(float(rate)) for rate in row])
    for label, victim in (("plain", None), ("victim", device.victim)):
        result = simulate_column_buffer(dtrace, device.dcache_geometry, victim)
        for f in dataclasses.fields(result):
            _update(digest, f"{label}.{f.name}", getattr(result, f.name))
    return digest.hexdigest()


PINNED = {
    "099.go/0/4000":
        "f28095464921c3bd3672cfb65d946978038bb9c30ae7b83a7ade0d7ea0dee992",
    "099.go/0/15001":
        "bfbe79dac187ef933314eb6d52d72761b978eb3faea19a8524dcfdf6afbaff0e",
    "099.go/1/4000":
        "b10d977b948a879f3fea72c523143a1f85a33332d80ed103ee216f25589eceb6",
    "099.go/1/15001":
        "f5edf76d6094d4e88a5d0cd77da41bcb4b601818f65c75e585eaef722f955b41",
    "124.m88ksim/0/4000":
        "31cdaf3c8d6c09e586537f76d0cf4af02427c98dabb212be26f7f42c638e63d9",
    "124.m88ksim/0/15001":
        "52e17f3ae404dc23a098b4c58060222b15dea9c969ac5fa8caa915836592ee17",
    "124.m88ksim/1/4000":
        "84432822a169de891570d95c6e03c6fbed8d2238f5e63649e06d322643ff5f74",
    "124.m88ksim/1/15001":
        "f6959e52cc836c3935572fbd98bfff1200ac1d8fa31bf59c6526190d0c82bd3a",
    "126.gcc/0/4000":
        "3b70b6af2635ccc8e4293ae4a8034cc296984e4b128504f7eb4f3b810e17542a",
    "126.gcc/0/15001":
        "cf40fd090da20f0aa6a2b45fcce8d28c16a4ea3ca5fecabf295016a0178e5e1e",
    "126.gcc/1/4000":
        "844eb5e89cc4ec27c59c42ec60c84424197e4fb5d48b25b36c4d05d635069e37",
    "126.gcc/1/15001":
        "eb35d9f31910281c036bdcb961dc0338a06cdfd0349245624812876e0d6f58cc",
    "129.compress/0/4000":
        "1efba20e342e004ad47a642cee048bc165544de97ca280f604d81eb7ee63f4c3",
    "129.compress/0/15001":
        "96de8324410ed3bd92b295e46250ca9a88d5a7278a40e8718693a1f870be0141",
    "129.compress/1/4000":
        "a2bd00358393e6832a7f3edd843518a5e86fc3a2d3664473fea28651c5c185c0",
    "129.compress/1/15001":
        "b241a3fdd2d8b7720faf43705b60c9a8c4eb6425f86049c4fdf5a79ebe70fd33",
    "130.li/0/4000":
        "f36930b061b93855dcd17ba5c47c22b82b0fcb6d13bd795519c77cab92c45f3f",
    "130.li/0/15001":
        "084a1ad7c587315f875dbf8847d4c6fc5d73867b68e53a5e53fbe0583d92beb7",
    "130.li/1/4000":
        "7d57973984e056581b68cd55de390f3c80e8c831587825520c327f746846ce9b",
    "130.li/1/15001":
        "8a9bde628f6c7a9ab8ae0d190224a34ed21d383103c780acdfa58d402590eb82",
    "132.ijpeg/0/4000":
        "c1cd15892f466ccc86ced72aa6ab16758b73b62b0a7c0ac60cf88367cf19ef9f",
    "132.ijpeg/0/15001":
        "1186b6c4049542f6f6c7940537361ebfa83e6f36284a36d7f75d651870da73fa",
    "132.ijpeg/1/4000":
        "5039f097c792fcf376e22e804da64e57318aa58d5f9837be100076ae7a510f45",
    "132.ijpeg/1/15001":
        "3aefdb561315d90596fe323cb57aef3205c3f8db3238a25a5d84ea91cd9aaf13",
    "134.perl/0/4000":
        "52184722fd64ef9cd1faefaec23e2ba6ff043cd021671c0e31c0f33c0ddc72c9",
    "134.perl/0/15001":
        "37c375623b5978fbf3bfe6b6a12cc0a29be6ea9808721b95a5f558fc6417d250",
    "134.perl/1/4000":
        "e8ad0715f6530fa09bef132365a52f9444277eef76c2e57d2dccfab565a5aa6a",
    "134.perl/1/15001":
        "f51709290f96c0451ba985bec9eda16509e35c04eae625c6d1a95181d5a67841",
    "147.vortex/0/4000":
        "cd2b6f9a636c5a531aa649d23cab69ad6d9f092817741a5dbc48a7e49f414b13",
    "147.vortex/0/15001":
        "d060b5d09d3324790693925ee196230d408d393932f1a584bd33a53703fcbb62",
    "147.vortex/1/4000":
        "759a4b33e1302aafa640917eace256ebb04c2252c5901743fe1d160d31f5f751",
    "147.vortex/1/15001":
        "74a29507e615c1c0ae8d1465659be9d368d5a76e234476638ca42571aeb32da9",
    "101.tomcatv/0/4000":
        "4e98f21ec47009f622ccce5d2de8b27697c9f0be4abf94770ebf84f0e9e70c12",
    "101.tomcatv/0/15001":
        "7dcf855f8b3739cd8714d35433bedd64c406ceecffbd20b7ea426eef4a4b2595",
    "101.tomcatv/1/4000":
        "ce1e933acc5813e1d6d3cef028679d29e04d8782d13ab14479aa8d7151691325",
    "101.tomcatv/1/15001":
        "a831cc30296ff99172f0a60bb73e61189869365881b5392e881796c8e169c551",
    "102.swim/0/4000":
        "992b000c8718168452d4e7d7718f1845caa30544e0e111aefeb8d7f3ae5b2343",
    "102.swim/0/15001":
        "f772b0430951516a06a3576da7efb3107a285949767f3411d3304612978a6d13",
    "102.swim/1/4000":
        "e8e74c72457af143a4afd3dd07329593ea1a68fc5fe248c6330a3d9e7dbe6bc6",
    "102.swim/1/15001":
        "5ac47c39cf721917c31e5ca69a33e09b5798744677e6e64e6a8e1699fc15c988",
    "103.su2cor/0/4000":
        "b3a4a1c02135737f8469fcd473067b44d7039941d013a704801a25defd9b37c6",
    "103.su2cor/0/15001":
        "2d5dce588fda7eb8cbc4fa3948dfac6320993c9d393ae9a73e87eba1ac80eaef",
    "103.su2cor/1/4000":
        "d2f71a59e48446d19989e491b45cf1fbddfe974928dd6ad012285d67cc41df5b",
    "103.su2cor/1/15001":
        "f0735e409318059805696b85ff731bcdab9256e7ca84419518b7ed97ed16c247",
    "104.hydro2d/0/4000":
        "344e397b4ea72151c1ce56e81f0cd03f552f87eefd8e8da85893112e8d8eba96",
    "104.hydro2d/0/15001":
        "5a97ee22c8561fdec25af5d7a90153e73cdc82e4b57e88f45f4f950713c28b85",
    "104.hydro2d/1/4000":
        "6c11ceef24af033974424c3e370567472e9f2321844bc0bbe32a2864ceb16709",
    "104.hydro2d/1/15001":
        "d7d72af052de164226d4d9bb1a94836176298635bd43787392e1c5511ed8fd98",
    "107.mgrid/0/4000":
        "49105bbb5c367bfe11314b8c5a1da29a0f8c81e8429a3ea2a659469928af0f0e",
    "107.mgrid/0/15001":
        "ff2d312b5c5124eee4b4e1e8399bcd4561df2dc11acaee136694d71323c6c1f2",
    "107.mgrid/1/4000":
        "f87153ceae6f1f7bfdb315ff5f99bb548be7ba4f72314264d223a2ad8e88552c",
    "107.mgrid/1/15001":
        "d86fb9c7f2356fe414e843f4f2872098599cc0ac950c22cd4f8fa3ce238bcf60",
    "110.applu/0/4000":
        "19a605ae9424eb122228b5a7cf57726173828ab94d24bdd3fd509430eebb0212",
    "110.applu/0/15001":
        "a8b0ab4331cea7c0e7d5a7b41e2863f6cf40038e7ecf98f4d1ce67c01df474fd",
    "110.applu/1/4000":
        "201b8b0e9f706533a4c36e8c7c9d2bf642dc69494ab5647a443e0e44b9899828",
    "110.applu/1/15001":
        "b46df75df2ce9edbaf81324469595f144e3a47d5ccac22f7d8d03cbe327210df",
    "125.turb3d/0/4000":
        "6764e90fc2434590e0d92817648df34abadadb2b5c918cf243e5fdfffa75936f",
    "125.turb3d/0/15001":
        "0fc900a5cb4d8151d1c0b97eacfc70f7c71e98b66bde800478a846fb0200fb64",
    "125.turb3d/1/4000":
        "8931c84919f7263f960e83b113f5c358f792b4566a2f024acb2cea502403dfe2",
    "125.turb3d/1/15001":
        "293930241ad0e07c4d834b25f3fc6de4cbe7e32381197e81548f5036fd60a373",
    "141.apsi/0/4000":
        "da5ecb2077b444d19ac77463cb1f4b8e19e67f2a6b100bda044a4552e160ed97",
    "141.apsi/0/15001":
        "c566073f547a1d2ffe0d61acfe865b2ed3f00abb2a4b46bf5dd0c1af3d960ad0",
    "141.apsi/1/4000":
        "d9e5c35d8c4106af75f5cb37cfeccc753e4df0d1be4f155ddbbd462de39a359a",
    "141.apsi/1/15001":
        "f76ee589011ba2f07bfcc25c6274e863c193573edadff98caf194ac00eaf619b",
    "145.fpppp/0/4000":
        "7a0f308f950e9a8f4d3d0b13b19c098fbca472753ba8607a38e1c1211f5fe000",
    "145.fpppp/0/15001":
        "ab8bf48a0c7850cccbe69ef9f7e93c88a357485f0ac7d6a8fd4a75397101a994",
    "145.fpppp/1/4000":
        "ad1d31c51df04663b1aa70c502383b523f099e2b31882ab5967c6df48f35a631",
    "145.fpppp/1/15001":
        "dd17285fddbbc22cf6af941b27145a05890d186efe03b29c5b5fa91a40f71804",
    "146.wave5/0/4000":
        "e1ce70ab17785304a3d4da8f43f0da030558c12ff58fef62474f566d102eb13b",
    "146.wave5/0/15001":
        "51e6503760b11af1dae35e37cebe6f0310d186b2afe59f629a94aa8ecac188b4",
    "146.wave5/1/4000":
        "1167c6c34cc426d7034d42d411114edb86f3e491f5c362512d659fadd148c466",
    "146.wave5/1/15001":
        "c6c7c050702489b577c2fcf644f89dbdd7845ed4af9c9d58ce5221c5d66b50a7",
    "synopsys/0/4000":
        "169b6465069ca520800cb15789644fde61a36b660f4fb791d6119720b2a41be8",
    "synopsys/0/15001":
        "169636eb89511c72f6f1636b4bb97edc4df6eeec433cf1f830e04a00cb85ce51",
    "synopsys/1/4000":
        "b3170cb0d38eb735d944dd1e94991475a0e941b2d3f0286d90362d07be564325",
    "synopsys/1/15001":
        "7f49c04214aaba1512a936b8ef0aa50d10e7ef240cb242a7ceb7912aca3e4793",
}


@pytest.mark.parametrize(("name", "seed", "length"), CASES)
def test_proxy_outcome_matches_pinned_digest(name, seed, length):
    assert run_digest(name, seed, length) == PINNED[f"{name}/{seed}/{length}"]
