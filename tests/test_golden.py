"""Golden stdout digests of the CLI: each argv runs in-process through
``cli.main`` on data written into ``tmp_path`` (see ``DATA``), and its stdout
must match the committed table to the byte.

A row holds the byte length and sha256 of the whole stdout and a 12-hex
sha256 prefix of each of its lines, so that a mismatch names the first line
that moved.  An output of more than ``_BLOCK`` lines has one prefix per
block of ``_BLOCK`` lines instead, and a mismatch names the first line of
the first block that moved.  The digests belong to numpy 2.4.6: a numpy
change re-takes them on its own.  A change that moves a digest updates its row and says
which argv moved and why.
"""

import hashlib

import pytest

from flattop import cli, data_io, multivariate as mv

# The laws of the cli-cold benchmark at its seeds 31 and 7001.
AL_31 = "a=0.6126872436594417,s=0.8236404362154188,b=1.8999707326632"
AL_7001 = "a=0.08570916572378895,s=0.7635287045347754,b=6.2053572623897315"
BL_INIT = "a=2.140687522149779,b=95.40910535332928,s=6.9439224780677185,t=6.9439224780677185"

# The data sets, by file name, each written by the argv of its row (with
# ``--out``): the criterion-7 segments, the mixed 1-d sets of seed 3 and of
# the criterion-7 seed (55 points), and 5000 draws of the cli-cold AL law at
# each seed.  ``cl.csv``, 1000 draws of the README's 2-d CL spec at the
# criterion-7 seed, has no CLI and is written by ``multivariate``.
DATA = {
    "segments.csv": ("gen", "--what", "segments", "--seed", "20260808"),
    "mixed1d.csv": ("gen", "--what", "mixed1d", "--seed", "3"),
    "mixed55.csv": ("gen", "--what", "mixed1d", "--seed", "20260808"),
    "al31.csv": ("sample", "--family", "AL", "--params", AL_31, "-n", "5000", "--seed", "31"),
    "al7001.csv": ("sample", "--family", "AL", "--params", AL_7001, "-n", "5000",
                   "--seed", "7001"),
}
FILES = {*DATA, "cl.csv"}
_BLOCK = 32

# The mixture argvs run at default settings to convergence, so GMM restart
# lanes retire at different cycles and ``--bl-upgrade`` swaps BL in.  The 1-d
# GMM sweep pins the per-axis Gaussian lanes and the one lane of K = 1.
MIXTURE = {
    "sweep GMM 1:10": (
        ("sweep", "--family", "GMM", "--k", "1:10", "--data", "segments.csv", "--seed", "11"),
        658, "f84fde652a7c12081d75c20f570abf6c90f2d5a22140eabcd076d2b8a8efa4fb",
        ("c313b60dd52b", "dac55a501d7f", "88f7d8f34e86", "33eb6805258a", "f1e44c01c3d4",
         "647cd5ff9c7b", "ee8d31ae67c5", "5d353d057fda", "c361582b0b6e", "8592dc789f0a",
         "a56f460c47f3")),
    "sweep FTM 1:8": (
        ("sweep", "--family", "FTM", "--k", "1:8", "--data", "segments.csv", "--seed", "11"),
        532, "ea4dd78f33252c35d9433e6b23a19c0fed1675c4d2c1d55498f396280d0fa542",
        ("c313b60dd52b", "a457e53d3028", "7dea7a97b4ab", "2c3a4e06963f", "ee356c8708af",
         "f719f352b1b7", "7cc356a0caba", "ccfcee03d446", "e2b7f2876884")),
    "mixfit GMM 4": (
        ("mixfit", "--family", "GMM", "--k", "4", "--data", "segments.csv", "--seed", "11"),
        1375, "bc8e71f817e83a1b9b162c8882fcd515d49e254215253e4db5d91c01fc4eedb2",
        ("785a6d2438bd",)),
    "mixfit FTM 4": (
        ("mixfit", "--family", "FTM", "--k", "4", "--data", "segments.csv", "--seed", "11"),
        1948, "34f8d55e2964162b9198ccb336fce5607af38b8434d17e110b3895944bf32584",
        ("626939477a37",)),
    "sweep GMM 1:6 mixed1d": (
        ("sweep", "--family", "GMM", "--k", "1:6", "--data", "mixed1d.csv", "--seed", "3"),
        406, "37ab188e198aed0f2c4b70869992d04677438d07902627a7c1eeb9c4d881043a",
        ("c313b60dd52b", "46ba0fc02c2a", "5450fd01fa71", "883ee0627933", "deec2d92548d",
         "aa0c888af851", "db2b0cd0715e")),
    "mixfit FTM 2 bl-upgrade": (
        ("mixfit", "--family", "FTM", "--k", "2", "--bl-upgrade", "--data", "mixed1d.csv",
         "--seed", "3"),
        1130, "48ea017c626ccb232de409b02da1aae6853c981c0bf73345b5f4be6a91b41886",
        ("f838c6916dc9",)),
}

# The fit argvs: ``gradcheck`` prints ``mle._KERNELS[f].derivs`` at default
# arguments, and ``fit`` runs the AL and BL passes on one problem (J = 1).
MLE = {
    "gradcheck AL": (
        ("gradcheck", "--family", "AL"),
        616, "ceab2de367be84c8d68d055a69622b35be1234ab55db7e7da4ceff088d91b9a7",
        ("3180f13bd2fe", "d2d5967ae341", "1e07d38e6033", "3942cea8be13", "8435bf8ab867",
         "02c43adb5d85", "809b38aa5c97", "720618609315", "ab4a438869ac", "aa4efe72f422")),
    "gradcheck BL": (
        ("gradcheck", "--family", "BL"),
        910, "1e39fa6d2758690ddecffcea3ee1959c9ba67171222cad561f62cf163d71f9c1",
        ("3180f13bd2fe", "718ca5b3b1bf", "0d6c9d48417f", "9b5c497f7a12", "6704d0d6e811",
         "6eca5488075f", "15b29326b3de", "90233f828404", "9170b3cc3b94", "d01542c69b9f",
         "778c70ae59b0", "961abf64dbd2", "533d107f914d", "c94a0cf849f3", "3cbc5f351c9f")),
    "gradcheck CL": (
        ("gradcheck", "--family", "CL"),
        1903, "f755d7112a6a524199bc5eac1bcfefb67fdfe051b7dd5ffbf27ac0411f05699a",
        ("3180f13bd2fe", "572bd4bb0069", "925a8de4dae8", "439eddbdf9f8", "d1291ab06c9f",
         "4460c895dfd1", "12e10623dbcd", "c684eb245354", "8e671771b504", "9dd5c7f560f8",
         "45adf58aae9d", "f351dae432a2", "84e5fae28392", "729b21d1108c", "98925fe86358",
         "cd03638143a7", "3aebd721adcc", "9cb22a33ee8d", "9a0c9bd2853f", "38d4fab7d9c6",
         "14c1a9842874", "d119094deaeb", "649e7bdfdedb", "eb74dfdb00c3", "7e6f6d771c2f",
         "c3628a018991", "971471c61873", "47939f700151")),
    "fit AL": (
        ("fit", "--family", "AL", "--data", "mixed1d.csv"),
        542, "b15c4b6995aabca985f86a47fb0d3653802b972262fa5f25e0b8cc45270c1896",
        ("ac97d126a527",)),
    "fit AL init-normal": (
        ("fit", "--family", "AL", "--init-normal", "--data", "mixed1d.csv"),
        544, "76de079ef2c163e65cf599d3ba9d3a384347c7ff13da427fd5590efc7ff54054",
        ("4e68476dd6f8",)),
    "fit BL init-normal": (
        ("fit", "--family", "BL", "--init-normal", "--data", "mixed1d.csv"),
        617, "6bd32a1dea9d50b1becf60da52997502104fabdc396bbfd2944145504f55444b",
        ("3c24d4f477b1",)),
    "fit AL init-normal mixed55": (
        ("fit", "--family", "AL", "--init-normal", "--data", "mixed55.csv"),
        562, "75d322e37dd09736aa37bb3deb52d723a24da3aef815935c39b38a1fb6d48891",
        ("4be0f513ba0a",)),
}

# The ten argvs of the cli-cold benchmark at its seeds 31 and 7001.  None of
# them runs mixture code.
CLI_COLD = {
    "gen 31": (
        ("gen", "--what", "segments", "--seed", "31"),
        16622, "8a67f0357581f33a7213937cd28685826da142354f4f432cf2340cac9750ba9d",
        ("0a38bd91701a", "33139b03bc29", "9f9777bbdee4", "9e689310ed9a", "afac38e0f724",
         "231f509a6550", "8bdfc2e1ea2b", "556c5ee058c1", "b95e0c9d186d", "01389ff39e16",
         "370eac53f3e5", "b75cf289a111", "8f62bd315d5a", "ca59598d37fa")),
    "eval AL 31": (
        ("eval", "--family", "AL", "--params", AL_31, "--grid",
         "-4.329155373633072:6.841813349955713:0.027927421808971963"),
        24332, "7f6a8bb34f1639874b12fd7558a8904134a20d7af3f0ce93c8528b8d846fbda9",
        ("fc4e3f28e305", "4074508d0531", "144010540478", "41749a58a8ac", "5e590d47c3fc",
         "8a123430d104", "13f845ee7dd2", "3ff499d3da3c", "f680a10f425f", "3d0fa589c5de",
         "afb45553544c", "06c2b528568a", "5504bae8ba63")),
    "eval CH 31": (
        ("eval", "--family", "CH", "--params",
         "m=0.9573393170207762,r=1.0345326973991824,s=0.7902780215959859,beta=3.4595762101348324",
         "--grid", "-4.8188615099543215:6.7335401439958735:0.028881004134875488"),
        24279, "a7303fbec382fb85a5645f41dead826b963f980ec37a24a3324e8c12a1948b41",
        ("39bed17dbaf5", "785a103d6a53", "9c243ae91106", "9c320f73c557", "98491f480818",
         "2681565feaba", "542dd28c9612", "c0381599a55b", "8f159c55e825", "78e66f05a169",
         "1666589c4bf2", "07ffd4924f55", "4330f2af9b19")),
    "sample AL 31": (
        ("sample", "--family", "AL", "--params", AL_31, "-n", "1000", "--seed", "31"),
        19471, "c87350cfcf248c888260aed1cba3a759adff7ccedd1015248085d12608ffa9d1",
        ("a4cca53f4e14", "c398ca1909d0", "5494f466bc58", "c78c47028f3a", "35e506c53bfd",
         "3a0749b5da7a", "71fc9a7e33d8", "0d49bb8e9ffd", "eeea31f07333", "6ffcab50885f",
         "518818a6dd1b", "00c5b6e61675", "af06df6e342a", "d2c39ee76d7c", "af1fb0d2b778",
         "3bc029c2760a", "3382ab355c7d", "d7e52264a13b", "5e54fd15998d", "31d39c4ad954",
         "c686ea92965a", "2e07b4e8e0a9", "50287583a3a9", "cd1d37906754", "c90c95e8c901",
         "6ef4ddd59690", "be9da97a0d2e", "ce77f2a316bb", "3ce5a0eef0f2", "fb415ef2d145",
         "5dcf4e9a2fa6", "7eca65c5b7b6")),
    "sample BL 31": (
        ("sample", "--family", "BL", "--params",
         "a=-0.29028889224474597,s=0.10662967520208128,t=0.17179567240109828,b=0.7952491045084793",
         "-n", "1000", "--seed", "31"),
        20282, "36fd7a9ef96b8e03b4f91343ae3c18ec97f6de11e5161dcc0ef8246fe1045df9",
        ("3a3d95b32638", "6ebaf2337b5b", "10ea3df3baa1", "16238ba3bc1c", "e449bbe0abd9",
         "b084097f13bb", "5be723f9f9fa", "f3d5b8d75a28", "187d3025f1db", "cd9e91f37107",
         "8461c605dc6b", "0bb4437e221d", "e836b747f0f4", "440238098bdd", "1e89a043bdf7",
         "d6209160cfd5", "1c7f58a2f7c7", "c58d2c8ec056", "7b8a4f6665e1", "cbc35b9ac8af",
         "80709039ab40", "8bfd27775f2b", "e1ad9291c2af", "51e24116a237", "df0b800a30f4",
         "1e6c6a8146ce", "4d38d4d60703", "775f5a3bae45", "dc3eb5128b23", "fd3d4a9f5bcc",
         "bc04230f6f11", "55d261194bf0")),
    "fit AL 31": (
        ("fit", "--family", "AL", "--data", "al31.csv"),
        707, "1bca96a1847e7e1e6551a1cd6614ea4d8663867f2f2840c7d170225769f2fafe",
        ("a507a5013d8e",)),
    "fit BL 31": (
        ("fit", "--family", "BL", "--data", "mixed55.csv", "--init", BL_INIT),
        569, "e303a5a9537f605a875414ad02ef011870027e681d88afda46424c5174d66b0e",
        ("7c27a2e395cb",)),
    "fit CL 31": (
        ("fit", "--family", "CL", "--data", "cl.csv"),
        853, "5d02689dd3e4935652577c99e828a620bc689d4070ee396de4a3d27afe8eb81c",
        ("35e301c0dc35",)),
    "flatness AL 31": (
        ("flatness", "--family", "AL", "--params", AL_31),
        239, "f010bf2c35cb19e65bd2e26ffebc6559100ac622d020d0c7e622119b5554f778",
        ("06e08fb545f7",)),
    "divergence pair 31": (
        ("divergence", "--case", "pair", "--p", "U:a=-0.7151429011609224,b=0.2848570988390776",
         "--q", "GN:mu=0.4101716815796792,s=0.6570574014435508,beta=2.949274197342108"),
        95, "b50481f9f98572b3babe1840477854b8500c5a50c1ea36c3a3d246c4814341e9",
        ("ebfe91b5774e",)),
    "gen 7001": (
        ("gen", "--what", "segments", "--seed", "7001"),
        16545, "1ee88cdd8ab223c7f2d6db1f08e5e87ff9d77ced6d071ee6acbdd41944a03216",
        ("b0e617a323f6", "39e10818e0d4", "54331296e66b", "8db910e48a23", "d66942ddfcab",
         "46c129831d50", "d9c9e87070a5", "5c31b294a781", "0dd79101b033", "e3dc56876da8",
         "7ec5294c763f", "604a0d4a5348", "adde6734d2e8", "30deae2b494a")),
    "eval AL 7001": (
        ("eval", "--family", "AL", "--params", AL_7001, "--grid",
         "-4.495463061484863:10.786529489598383:0.038204981377708114"),
        24339, "7217a98d0544e23c0379ae97f2557bdc13c7a9df21b2e14e05237120c0b9fef9",
        ("90c471cf3df5", "2a821f1ee6e0", "3a1d6ead5933", "965aedede653", "48b0afa889b8",
         "5b0373d64755", "e2743756ab28", "16af87fb4b13", "d93f074669ff", "6f61d0e19952",
         "f3756784cd7f", "e4cec3d6fd5b", "71722bae148c")),
    "eval CH 7001": (
        ("eval", "--family", "CH", "--params",
         "m=0.7695824053725369,r=0.5844053144072515,s=0.5479181828393518,beta=2.49073385741203",
         "--grid", "-3.1023320060708253:4.641496816815899:0.019359572057216813"),
        25140, "0155eff252fa057479cae6d44ad1372eb5f078712b66e00315b5710a73eddaab",
        ("b3ed76e2ec31", "1cef79195397", "7efb20d592f0", "e237cfdd9057", "70c3933dc627",
         "9fb17a40bed7", "30879b152596", "f86b430b3a37", "7aa37696c816", "efb4dc938e83",
         "90532560ea94", "2581a3e09e9e", "1f0f9a625330")),
    "sample AL 7001": (
        ("sample", "--family", "AL", "--params", AL_7001, "-n", "1000", "--seed", "7001"),
        19089, "ed30c130b250142295a7b1a579d1aecfefecceeada6d5b031e974323876cb539",
        ("14c18a193f5a", "3c244a6a3861", "c79fcee0f3f8", "ed334e644eec", "38c4b439a653",
         "c439bfd61e28", "8d274c0afffa", "8e46b35d1fa6", "6cb47dbdad12", "5695a3aa75e7",
         "bd77516f208c", "b0c0350c7d79", "f5a25b942b86", "ee4f3c584f97", "300a042cbfd8",
         "3037d9dac286", "3d7b45613000", "95df05276c54", "cf91ef4785f8", "48fbe67fb51b",
         "75ecf85dadb9", "7ae5cf8a6a93", "a2caf65df492", "60bea265c057", "e3219d50129b",
         "217ba41960b0", "2aead72a4e5b", "91776a17a73d", "51daf4c16bb8", "0debbc3a9718",
         "c5cd13308602", "5745f6ea2be3")),
    "sample BL 7001": (
        ("sample", "--family", "BL", "--params",
         "a=-2.2540581701543094,s=0.16902449171025247,t=0.15094676766579165,b=1.1506316771841036",
         "-n", "1000", "--seed", "7001"),
        20246, "92239bf83e49dd838ebc6a2d8d3465c5ddbac603861dd25e33bbb492177ffa97",
        ("c893140b54fe", "1ebab8310783", "efbc01a7ff26", "11f94c227fb6", "c5bc71b11e18",
         "f3903331712a", "e627d24df34a", "b45b63e7e863", "0fd84f88db08", "a5cdfbddf4e7",
         "c6b9cffa725a", "7d17c17c2460", "fa8af21bc57f", "9b7754d2c62c", "5e6e6dd7db65",
         "42f37a384bbd", "cafcf7981098", "4d348310a1e8", "f2579d7f94a3", "13aa76e62054",
         "c5cdb2a3a08a", "e95f4586440d", "37fdb2ac3917", "4e312980b3a0", "6b996960f948",
         "bfe6fa54c262", "a39e1ec3c753", "82f424f3843a", "53cfa6f8b17c", "0d6a0fd0e9ba",
         "04c342608a29", "056ab1c06948")),
    "fit AL 7001": (
        ("fit", "--family", "AL", "--data", "al7001.csv"),
        654, "f62c31d0d472240cf0c5c5db000c1724aa0d49a8e4811d29630c2d9ce0c7cac1",
        ("f2e0f6252de9",)),
    "fit BL 7001": (
        ("fit", "--family", "BL", "--data", "mixed55.csv", "--init", BL_INIT),
        569, "e303a5a9537f605a875414ad02ef011870027e681d88afda46424c5174d66b0e",
        ("7c27a2e395cb",)),
    "fit CL 7001": (
        ("fit", "--family", "CL", "--data", "cl.csv"),
        853, "5d02689dd3e4935652577c99e828a620bc689d4070ee396de4a3d27afe8eb81c",
        ("35e301c0dc35",)),
    "flatness AL 7001": (
        ("flatness", "--family", "AL", "--params", AL_7001),
        242, "7529dd891ddd7990b1f3f7627677c573ad5542970ce4c5dafc71665c35717707",
        ("5293550ca9d6",)),
    "divergence pair 7001": (
        ("divergence", "--case", "pair", "--p", "U:a=-0.21493507912190968,b=0.7850649208780903",
         "--q", "GN:mu=0.25956334103117906,s=1.589583679003183,beta=3.577369000004574"),
        96, "ce187fd723e482f6e6e64e23c4c11b2692b02b4c156e66286fb5c48e8d74d023",
        ("994da75de8b5",)),
}

# One ``eval`` and one ``flatness`` per family, at a point inside the family's
# parameter box, and the closed-form ``divergence`` cases (the cli-cold rows
# hold the quadrature case, ``pair``).
DENSITY = {
    "eval U": (
        ("eval", "--family", "U", "--params", "a=-1,b=2", "--grid", "-4:5:0.25"),
        707, "9b8fba344ee55d309e42d06ef7480fb867ec493794f02f2ef59f65d0e2f39d04",
        ("30d4b4fad7c5", "409833c46baf")),
    "eval GN": (
        ("eval", "--family", "GN", "--params", "mu=0,s=1,beta=3", "--grid", "-4:5:0.25"),
        1506, "498802d77ece06e0425f49c2cbecbe7cd83962114668540319b05f9ffd063b5f",
        ("4e3f70dc2350", "b3fdafbf5127")),
    "eval AN": (
        ("eval", "--family", "AN", "--params", "a=-1,b=2,s=0.5", "--grid", "-4:5:0.25"),
        1713, "d277d03e4d362d890893a2206867b53f34fb34aa6e3ac737d916c3729d7c65b8",
        ("7254f8464e15", "70e8d9493fbb")),
    "eval AL": (
        ("eval", "--family", "AL", "--params", "a=-1,b=2,s=0.5", "--grid", "-4:5:0.25"),
        1687, "7c3f245099f82b9e740f4f7ab55af79cf1b63073a082637cc658f8cb99352e05",
        ("d5e07f53f6e4", "d32ebc2aecc4")),
    "eval ALS": (
        ("eval", "--family", "ALS", "--params", "a=-1,b=2,s=0.4,lam=0.3", "--grid", "-4:5:0.25"),
        1707, "437775085f11647eccdd79056aa68c9bfd63a484f34db959ae1f2a3e68d3a896",
        ("98103a23467a", "51bda834e42d")),
    "eval BL": (
        ("eval", "--family", "BL", "--params", "a=-1,b=2,s=0.3,t=0.5", "--grid", "-4:5:0.25"),
        1714, "dd172fba50ca97642ba9110ae60839dc177af901c403b5ed6ebd75d405c5aa93",
        ("c3ba4fce032c", "b0600a027a7f")),
    "eval BD": (
        ("eval", "--family", "BD", "--params", "a=-1,b=2,s=0.5,t=0.7", "--grid", "-4:5:0.25"),
        1710, "f35189374b33367dca11d79f0261c23900bcdd93159d5a920e2c053539ce99dc",
        ("8bc3d53de49b", "bb86b2fe0db2")),
    "eval CC": (
        ("eval", "--family", "CC", "--params", "m=0,s=1,beta=3", "--grid", "-4:5:0.25"),
        1673, "b8f6e33e6a6f82ff634da54f5d1067b79cb618145c94710174835c096018770e",
        ("ba6e59bbd518", "f77e95046ede")),
    "eval CF": (
        ("eval", "--family", "CF", "--params", "m=0,r=1,s=0.5,beta=2", "--grid", "-4:5:0.25"),
        1594, "3719505d4c9d860a5d857f9e7103d4897c7b6073b4c87ba1c4a88cc36a242cce",
        ("ea7f6409bf70", "f0597927eaf8")),
    "eval CE": (
        ("eval", "--family", "CE", "--params", "a=-1,b=2,s=1", "--grid", "-4:5:0.25"),
        1731, "9aaf92a771ea5afe214d7cc76d80b55a5805f06fa34a001d5de937f8e01dca98",
        ("1671f444e573", "4149b64de405")),
    "eval CH": (
        ("eval", "--family", "CH", "--params", "m=0,r=1,s=0.5,beta=2", "--grid", "-4:5:0.25"),
        1760, "b2f242ba6ce455d0357ef88387f0c8e6dcbbd7dfd0cfc1c5e5eaa485549ef6d4",
        ("e1e91a3d5388", "0dcbdb99f5ea")),
    "eval DE": (
        ("eval", "--family", "DE", "--params", "m=0,s=1", "--grid", "-4:5:0.25"),
        1653, "5dae6dc349b040b92dc63f41c36347f356496852f3f698b3a1aada70df4f3408",
        ("85619290ff36", "a8a37ec1f8e7")),
    "flatness U": (
        ("flatness", "--family", "U", "--params", "a=-1,b=2"),
        163, "48cc9ce797d74eebe911a5f65f604f3a4dfeb037e0b4ff7fda3bc63c72ce951c",
        ("1d674b7e5fda",)),
    "flatness GN": (
        ("flatness", "--family", "GN", "--params", "mu=0,s=1,beta=3"),
        222, "fcd01d730bfe72007714a060380e74ff976d6ef2ac53c711db0ae7b599a3aef1",
        ("0e3a9368cb2d",)),
    "flatness AN": (
        ("flatness", "--family", "AN", "--params", "a=-1,b=2,s=0.5"),
        240, "32de5a5f62eafa86d9297fa02d3e26654fe1e9db6a188a34bd2e8d06af4adb31",
        ("aa1ba63c5229",)),
    "flatness AL": (
        ("flatness", "--family", "AL", "--params", "a=-1,b=2,s=0.5"),
        237, "27fe0bbf6a5b170d7bebca91fce83f5c039c40cb193d8407368dd781a72eb204",
        ("3df255d6b4e3",)),
    "flatness ALS": (
        ("flatness", "--family", "ALS", "--params", "a=-1,b=2,s=0.4,lam=0.3"),
        223, "567dd8fbc710a002afabcb5a19f19cb18fb3e11c7c99264b9dcab8965a015c49",
        ("afd02571e77d",)),
    "flatness BL": (
        ("flatness", "--family", "BL", "--params", "a=-1,b=2,s=0.3,t=0.5"),
        238, "19dcf389b94c52a48e70bc44163ea20a175bc1023208d44bad6f3cdb4a7a23ed",
        ("76ac975f8288",)),
    "flatness BD": (
        ("flatness", "--family", "BD", "--params", "a=-1,b=2,s=0.5,t=0.7"),
        221, "cec07452dbb218a9bc4f1593784ed170d291d64bab50dedd086483a2159d4e15",
        ("73a81f32d7cd",)),
    "flatness CC": (
        ("flatness", "--family", "CC", "--params", "m=0,s=1,beta=3"),
        226, "fd1539ac93f8bb4c579a6844bfb564e0b4bddec53235e8a9ffc333c48fc45264",
        ("6b7da2db5eb8",)),
    "flatness CF": (
        ("flatness", "--family", "CF", "--params", "m=0,r=1,s=0.5,beta=2"),
        223, "fa1ee5c1b818dda9bec67f174a2a1a5978a4ba8624b67842ece472c21e306049",
        ("30ecff9596da",)),
    "flatness CE": (
        ("flatness", "--family", "CE", "--params", "a=-1,b=2,s=1"),
        239, "10eae26fc11317545fdf6c4805f7b715ea3b5761954ec0125ba53aa873055b11",
        ("d0d7dea34a75",)),
    "flatness CH": (
        ("flatness", "--family", "CH", "--params", "m=0,r=1,s=0.5,beta=2"),
        208, "2a501951084a9131d67d29e0513d21867f435db5b38f3b3e73a3e3d85e8592fb",
        ("8525ca530bd3",)),
    "flatness DE": (
        ("flatness", "--family", "DE", "--params", "m=0,s=1"),
        205, "595a8a21506f607d8a3e4197cd4740777fb9f2a8f60236e98dd737b5dac4ae7a",
        ("cddb36027764",)),
    "divergence uniform-normal": (
        ("divergence", "--case", "uniform-normal"),
        99, "014a4acab762e4e918c06477b8924bdbf617664654eada983eb4dc495b7a038e",
        ("0917f8a90d29",)),
    "divergence ball-normal": (
        ("divergence", "--case", "ball-normal"),
        97, "0336c59a90b011d0c05ed22245fdd7f04f3aa082602b353b5a039e6dc90ca75f",
        ("503ed85d9556",)),
    "divergence ball-normal 3": (
        ("divergence", "--case", "ball-normal", "--dim", "3"),
        98, "94b24310938fe467bde2331a3888471c6356f51c126d6af33da6b35e18988693",
        ("240e94b15861",)),
}


def _blocks(out: str) -> list[list[str]]:
    """The lines of ``out``, one per block, or in blocks of ``_BLOCK`` lines
    if there are more than ``_BLOCK``."""
    lines = out.splitlines()
    step = 1 if len(lines) <= _BLOCK else _BLOCK
    return [lines[i:i + step] for i in range(0, len(lines), step)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, argv in DATA.items():
        assert cli.main([*argv, "--out", str(path / name)]) == 0
    cl = mv.make_mv("CL", [0.0, 0.0], 1.0, 20.0)
    data_io.write_csv(mv.mv_sample(cl, 1000, 20260808), str(path / "cl.csv"))
    return path


def _check_rows(table, data_dir, capsys):
    for label, (argv, size, digest, lines) in table.items():
        argv = [str(data_dir / a) if a in FILES else a for a in argv]
        assert cli.main(argv) == 0, label
        out = capsys.readouterr().out
        blocks = _blocks(out)
        got = tuple(_digest("\n".join(block))[:12] for block in blocks)
        moved = next((i for i, (g, e) in enumerate(zip(got, lines)) if g != e),
                     min(len(got), len(lines)))
        first = sum(len(block) for block in blocks[:moved]) + 1
        row = (len(out.encode()), _digest(out), got)
        assert got == lines, (
            f"{label}: line {first} moved (digest {moved + 1} of {len(got)}, expected "
            f"{len(lines)}):\n{blocks[moved][0] if moved < len(got) else '<missing>'}\n"
            f"new row: {row}")
        assert row[:2] == (size, digest), f"{label}: new row: {row}"


def test_mixture_cli_stdout_matches_the_golden_digests(data_dir, capsys):
    _check_rows(MIXTURE, data_dir, capsys)


def test_fit_and_gradcheck_stdout_matches_the_golden_digests(data_dir, capsys):
    _check_rows(MLE, data_dir, capsys)


def test_cli_cold_stdout_matches_the_golden_digests(data_dir, capsys):
    _check_rows(CLI_COLD, data_dir, capsys)


def test_density_stdout_matches_the_golden_digests(data_dir, capsys):
    _check_rows(DENSITY, data_dir, capsys)
