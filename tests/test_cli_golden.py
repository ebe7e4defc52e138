"""CLI output on the FI kinds, OI_G and OI, pinned by digest.

Two corpus files per lane (sample_presentation seeds 3 and 4, horizon 5:
presentations with relations and a free one among them) go through every
command but fuzz with --format json.  The sha256 of each stdout and the
exit code must match DIGESTS, which were recorded when FI kinds stored only
m_r as their step generator, so any change to the generator table or the
closures that moves a single output byte shows here; each exit code must
also be the worst check status of its report.

At horizon 5 no Koszul differential is large, so two plain OI files at
horizon 9 (FUZZ_PROFILE, one over F_2 and one over F_101, one of them with
a zero degree) pin ``homology --depth 2`` in OI_DIGESTS, recorded while
tor_groups still checked d o d = 0 by multiplying whole differentials.

Regenerate the tables with ``PYTHONPATH=src python tests/test_cli_golden.py``
only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json

import pytest

from catrep.category import make_category
from catrep.cli import main
from catrep.corpus import FUZZ_PROFILE, sample_presentation
from catrep.fields import parse_field
from catrep.presentations import emit_presentation_text

LANES = (("fi", None, "fp:101"), ("fi", None, "q"),
         ("fi_g", "cyclic:2", "fp:2"), ("oi_g", "cyclic:3", "fp:3"))
SEEDS = (3, 4)
HORIZON = 5
COMMANDS = ("info", "hilbert", "homology", "decompose", "shift", "probe-sd", "verify", "oracle")


def lane_id(lane):
    return "/".join(x for x in lane if x)


def write_file(name, cat, field, horizon, pres):
    """Write pres to the working directory: a report names its file, so a
    relative name keeps the bytes stable."""
    with open(name, "w", encoding="utf-8") as f:
        f.write(emit_presentation_text(cat, field, horizon, pres))


def run_json(*argv):
    """(exit code, stdout) of main with --format json."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--format", "json", *argv])
    return code, stdout.getvalue()


def lane_runs(kind, group, field_spec):
    """{"seed/command": (exit code, stdout)} for one lane."""
    cat, field = make_category(kind, group), parse_field(field_spec)
    out = {}
    for seed in SEEDS:
        name = f"{kind}-{seed}.pres"
        write_file(name, cat, field, HORIZON, sample_presentation(cat, field, seed))
        for command in COMMANDS:
            out[f"{seed}/{command}"] = run_json(command, name)
    return out


OI_FILES = (("fp:2", 52), ("fp:101", 14))  # Tor_2 nonzero in both; V_2 = 0 in the second
OI_HORIZON = 9


def oi_runs():
    """{"field/seed/homology": (exit code, stdout)} of the plain OI files."""
    cat, out = make_category("oi"), {}
    for spec, seed in OI_FILES:
        field = parse_field(spec)
        name = f"oi-{spec.replace(':', '')}-s{seed}.pres"
        write_file(name, cat, field, OI_HORIZON, sample_presentation(cat, field, seed, FUZZ_PROFILE))
        out[f"{spec}/{seed}/homology"] = run_json("homology", name, "--depth", "2")
    return out


def digests(runs):
    """{"seed/command": "exit code:sha256 of stdout"} of lane_runs."""
    return {key: f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()}"
            for key, (code, stdout) in runs.items()}


DIGESTS = {
    "fi/fp:101": {
        "3/info": "0:fef809f6e2148f4b33923abfdfd76396d582ff84a4188e91c1e14de8807b254f",
        "3/hilbert": "0:697bd2f904b94288cfe38bb08ab87d12ce50bc7d2c6eccb026c256b2014f873a",
        "3/homology": "0:6e3346e594c85028999629528cb41ab374ab799cdf6964f1e61099a555d3ce30",
        "3/decompose": "0:6d101debd26c41c3fbb80fc68aab1122c5398ab1642f9f5a73ca937a07e8d71f",
        "3/shift": "0:788ab21194b3991fe51e5a0daed3b4305582116430cc923a752179e648644a1f",
        "3/probe-sd": "0:80c24ffcd192206e5d8ef2a9358645362ccdbb83932797bff087ca4edb1f0f2a",
        "3/verify": "0:33e3a6160cd73535c28545687a424d4973b059a6d2783d98ee192466ae6bb965",
        "3/oracle": "0:a4b519b038d52c4c07563dce139bc70bcc116b24a8411bae95c93d17cb725fba",
        "4/info": "0:a2f796684dbeb0d67a61e036404f13b7e2f724b5554740739f0c741e6e3bcc33",
        "4/hilbert": "0:027aaf60f23a6783e96e5193e31fd4e61b001c5bb698b698060bc997a29b0c3c",
        "4/homology": "0:baa3418e4d80d1c9e4e5d5bc2a98130652b9fbfe3c4da8c29981134954b8cf4a",
        "4/decompose": "0:5a8551e0e11175ae67e2828d8fa332cb02d2fd9961ef3d7b4eaf1036bce371c3",
        "4/shift": "0:b9d6425343c8a98e2fff5e017e8e2807f80184c3a7f1420a01ac7c3c6e0514e6",
        "4/probe-sd": "0:7904b9443775818817e91a63b39b321a22f9c5bcb53f12fe5a80b750f9815b17",
        "4/verify": "0:1128d178e10a89ac065aa51553c61bdae482e8608ad40c8a56694c92192cdaae",
        "4/oracle": "0:0b4571a81d932746470527e3c3da615210bcc000784f0cfc3a7981ce7ea327db"
    },
    "fi/q": {
        "3/info": "0:5ee73d2e56156e8ba406c4c1fb95dbecb541890a7d1a516cde7f4aea7117a1a7",
        "3/hilbert": "0:379f5b60c07e5cb1f723d6a3313083e5d00e58bbd0fd926ac41fa84c5d13ef2f",
        "3/homology": "0:f283ae76dc46c6a10f357ebbc4faa0d4cd91a8fe206afafe8ae105c79235c40c",
        "3/decompose": "0:57436d81b49f4276f5fd3cbaeab36fe9ce1b9aa750083f228413393dc853a3e1",
        "3/shift": "0:7f79c8470887d21acaff81faa0f44285b3f076ce99cb6e203cf76cc9efde9bc0",
        "3/probe-sd": "0:c60e45fb106bed3752d4d7998141ec938086ba3e4cf6883623ff3f970e8246a0",
        "3/verify": "2:93f0bb8f9074a27e32009b9ce2316419528ae2bbdbbfeb7f6e95c3faca098e6f",
        "3/oracle": "0:b464fda4b9c7ca5b1546f782c38f994a5b60febe0f71a89cb3f1b4a671c95ad7",
        "4/info": "0:a490c961d1fd6d88276b6048cfcb6c9e8461e0ee0acea9c05833923a7fe8dfee",
        "4/hilbert": "0:8b9039b85922a1b190d4c6e2d3140bf9aa7106f75639365d5c02b0b17b1f8e3e",
        "4/homology": "0:215231dfd0f46d2527397e314638511682cf6c45326c6e4306ba69939c7ca014",
        "4/decompose": "0:552ac5153f3788c20c4fc017c1673f68cc20d65ae7b9ddedb8c78789e25de645",
        "4/shift": "0:411062f4074e0391a0c8dafb227fb2ac66abecb3b418e65682870f46a4601b89",
        "4/probe-sd": "0:28d19ffff08a2f1a4f7069ceb4432a8fb7373b2133e91c47a47163d6ca638abb",
        "4/verify": "2:3fa54b9721343e91a3ae9367383943cefc7e3e6a7abbc065394a2614bfc92c9b",
        "4/oracle": "0:58a05ca5c52b4645193b9bb6595638ef2bb80ce7e8152d36f7b5d5bd72221506"
    },
    "fi_g/cyclic:2/fp:2": {
        "3/info": "0:965c7ba087baa6c38f277ebec7cadf49d4f61c8e4b4f4cd57bb65adc44a1b3da",
        "3/hilbert": "2:5ff1f608e4b5a9b38fbd68b3ac4cf8b16450bf6f347cb871aaf6f1430bdf6b06",
        "3/homology": "0:4ee6658de7a54587cf72e193e8ececb069607725b5eff20e2a3b4f15ed810ea9",
        "3/decompose": "0:7a7011e748fa496fae688d81e0b2b0a82d6088182df3d2fe8ef2d9f2c7752e34",
        "3/shift": "0:674740f74e08b0467efeb9878b207da91efd53b85801569faf4748954212ad71",
        "3/probe-sd": "0:fb0d2d1e22dd7da526caf33e008af5cd327854eacb93c5e3803b3fc76555e504",
        "3/verify": "2:2a0b7871332dc5653b7f0dc1f6055c0d272d23149b7c454995f52039a13e51b6",
        "3/oracle": "0:72dd06a3948a5cc841b510f700078e84965b1fac072b66787345af5dea59f1c7",
        "4/info": "0:54548f044f425177c4e258b2a0595be8aeb72f8158f0d42c3d773c8817a703f7",
        "4/hilbert": "0:a45fa0a01be9d35fc3f21908dbdcde7c54d24ad7f7a1644a1f0a1ea0ba6bbd21",
        "4/homology": "0:cb938f1dff47b688c00efa95c4b5c240b65d76efc42cb0d6e816045dab90a508",
        "4/decompose": "0:adb1e01bc281017bad169f5066f33f11954ab890538159546425f0d773a4d7d5",
        "4/shift": "0:ffac0338ecff01eb512ddb8aec173b49605f9ddd5008c0f4cd16c09f042cae79",
        "4/probe-sd": "0:ede68ab412525fac38e9b6b78908da0e1c891a16cef10a2e219b562ef71716f3",
        "4/verify": "2:2bb3b8eb2cb3521e559745d3e888f4e33d8c15bec1c78d396f41c0c4aece3f4a",
        "4/oracle": "0:30767b0acc0aa945a8c81831ae68e1f3609b2b6cdc684c7eb1a32569a2e770b1"
    },
    "oi_g/cyclic:3/fp:3": {
        "3/info": "0:3f9d16e71beb01cfadb9d4e275e35bba397a0bcd5e485c4e20125e19e9bf1195",
        "3/hilbert": "0:a2cbeb8ed7458547424fd8e1f9dc02e468710f0263b076f25d66cf137de0c011",
        "3/homology": "0:0e271acc69be2d4fbdf83d86e2d37b1aae3b863e8a326a78bb1b5d892a479538",
        "3/decompose": "0:7bc9676d4d032d0936f6c11f345d2cea9dd6c5b59b966041cecb8fe79cde9c8a",
        "3/shift": "0:41309179b400ded2ca009048f8c79c3f2f6b7d5dce9d0993bbbcbe8e3eb3f944",
        "3/probe-sd": "0:82cc60cb1fb31ff4d9de708ae03099d45d6c1d3345b0c1c78f92952f3131622e",
        "3/verify": "2:698f96418894583d91d5be89c6600b59e66682c969d67822610b1d5a44f31a69",
        "3/oracle": "0:57ad392951f8145e174388e8b3aeedae35fd1dcf42ac39fabe226f767351958c",
        "4/info": "0:73a04fe13d35a8e79207276f627d84ccb311d7f77e1a96bbb9d87cee55b4dfbe",
        "4/hilbert": "0:2e9f2c93db23845f9232c048d9a73665b19e35628c314eed795469fa9bf7e5fd",
        "4/homology": "0:dfb86d137ce140145f2e4342299754f2e77ea9eec1c9dfbbfa721efe4abe2f73",
        "4/decompose": "0:a5a096732c87ce7c542b7dde2104518b9e8350e8c7f3155e113d2c0ae95e1ad7",
        "4/shift": "0:04e6a1fc5ddfa76d3f312d7784dd572b133e21da30dbef78a18f32245aa452c4",
        "4/probe-sd": "0:4884cb4d47a83acc5a4ae1a99a9ffe5d07af2f4fe8046c963876b9405e283cff",
        "4/verify": "2:4c651c3f45c3f71afe6f58b5b8bcbdaceac61b446ed4e976450ddcaafac13e01",
        "4/oracle": "0:928631ccdc2a11a063153599027aee2bbe75b7f99431578eda5e30ee15f8f51b"
    }
}


OI_DIGESTS = {
    "fp:2/52/homology": "0:e97e2b7970c5cb6a2cc4e7d5f5e40364282f2ea3433232059d836c30a821837d",
    "fp:101/14/homology": "0:5ea711fe384db5ee30c8ea55e036acbb4dd85b41945e7ecd9cf2ef12b27f6cf5"
}


def assert_worst_status_exits(runs):
    # the worst check status decides: a violation gives 3, else an
    # inconclusive check 2, else 0
    for key, (code, stdout) in runs.items():
        statuses = {item["status"] for item in json.loads(stdout)["items"]
                    if item["type"] == "check"}
        worst = 3 if "violation" in statuses else 2 if "inconclusive" in statuses else 0
        assert code == worst, key


@pytest.mark.parametrize("lane", LANES, ids=lane_id)
def test_cli_json_matches_the_golden_digests(lane, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = lane_runs(*lane)
    assert digests(runs) == DIGESTS[lane_id(lane)]
    assert_worst_status_exits(runs)


def test_oi_homology_at_horizon_9_matches_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = oi_runs()
    assert digests(runs) == OI_DIGESTS
    assert_worst_status_exits(runs)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        table = {lane_id(lane): digests(lane_runs(*lane)) for lane in LANES}
        oi_table = digests(oi_runs())
    print(json.dumps(table, indent=4))
    print(json.dumps(oi_table, indent=4))
