"""Golden output bits of the time-stepping path.

The sha256 of every artifact of two smoke-size CLI ``evolve`` runs
(periodic split-step and Dirichlet Crank-Nicolson; ``manifest.json`` holds
timings and is left out) and the bits of library ``integrate_trajectories``
endpoints are pinned.  A change meant to make evolution or advection
cheaper without changing its output must keep every one of them; a change
that moves numbers on purpose re-pins them and says why.

Floats are written with 17 significant digits, so the pins depend on the
numpy and scipy builds (FFT, exp, sin/cos) as well as on qpotlab; they were
taken with the versions in ``PINNED_WITH`` and are skipped under others.
"""

import hashlib

import numpy as np
import pytest
import scipy

from qpotlab import dynamics, qpotential
from qpotlab.cli import main
from qpotlab.grid import DIRICHLET, PERIODIC, Grid, GridFunction

PINNED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

pytestmark = pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != PINNED_WITH,
    reason=f"output bits pinned with {PINNED_WITH}",
)

ELECTRON = qpotential.electron_params()


def relativistic(*orders):
    return qpotential.QuantumPotentialSpec(
        tuple(qpotential.QTerm.relativistic(k) for k in orders)
    )


# The benchmark's evolve config at smoke size, with its seeded draws fixed.
EVOLVE = {
    "units": "electron",
    "orders": "0,2,4",
    "points": 256,
    "L": 1.0,
    "initial": "gaussian",
    "center_frac": 0.5,
    "width_frac": 0.05,
    "k0": 50.0,
    "dt": 1e-6,
    "steps": 40,
    "store_every": 4,
}


def evolve_artifact_hashes(tmp_path, boundary):
    cfg = tmp_path / f"{boundary}.cfg"
    cfg.write_text(
        "".join(f"{k} = {v}\n" for k, v in {**EVOLVE, "boundary": boundary}.items())
    )
    out = tmp_path / boundary
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def trajectory_endpoints(boundary):
    """Evolve, sample 2000 seeds from |psi0|^2 and advect them (4 substeps)."""
    if boundary == PERIODIC:
        # the benchmark's transport part at smoke size, seed 1
        g = Grid.uniform(0.0, 1.0, 512, PERIODIC)
        psi0 = dynamics.WaveField.gaussian(g, center=0.35, width=0.06, k0=40.0)
        spec = relativistic(0, 2, 4)
        cfg = dynamics.EvolutionConfig(dt=2e-7, steps=100, store_every=10)
    else:
        # a packet that runs into the left wall and reflects; Bohmian seeds
        # turn back before the wall, so none exits
        g = Grid.uniform(0.0, 1.0, 257, DIRICHLET)
        psi0 = dynamics.WaveField.gaussian(g, center=0.08, width=0.03, k0=-200.0)
        spec = relativistic(0, 2)
        cfg = dynamics.EvolutionConfig(
            dt=1e-3, steps=50, scheme=dynamics.CRANK_NICOLSON, store_every=5
        )
    V = GridFunction(g, np.zeros(g.n))
    res = dynamics.evolve(psi0, V, spec, ELECTRON, cfg)
    rng = np.random.default_rng(1)
    seeds = dynamics.sample_from_density(psi0.amplitude(), 2000, rng=rng)
    traj = dynamics.integrate_trajectories(res, seeds, ELECTRON, substeps=4)
    return traj.endpoints(), traj.exited


EVOLVE_HASHES = {
    "periodic": {
        "evolve_summary.json": "d2b4790c4f174bd676f604245c92ba67de6165df51e2f0565bce79abfa4ceeca",
        "frame_000000.csv": "13dd981f27eec0926c323bc92e0026ab6a5c85ffa98dd35898c482ace4a843e4",
        "frame_000000.csv.json": "ac9e76d2bcec3e2355c9318b26cacab35472286f7f82112c81761f8e988a76da",
        "frame_000004.csv": "11424219e5d47cbb77365fb6de81d6386d9f8511b65e5b0550fd41977e86a789",
        "frame_000004.csv.json": "1aeb40cd6e172a0727486b3bc171321b5eb2d6275d5f194fd1d8da9108cac754",
        "frame_000008.csv": "2b18ccf2a302e838c5d1e716b5d792a77870a6693e6ad94defc0d19a636ce137",
        "frame_000008.csv.json": "0b6afad8522cfafcfafc1589edf9c6a9f590acdd47e91cacfe363786d5e0addf",
        "frame_000012.csv": "362ac2e551ffd2481eaee82cd6e04c8a8b4f4da093cc7ba2dae0bdd90a116dc8",
        "frame_000012.csv.json": "a83e1691e2612d002b87e9d9ec95441c9bc2cfce3822de34c63933ba079dad60",
        "frame_000016.csv": "7c9e93e2c2066168708ad1bbfd56df41a716208eef0418cba793b11bc78d385b",
        "frame_000016.csv.json": "ea840a6b82f6b061463fe2c8898c7a007cee89ad4d18f0f952202e4879a64a99",
        "frame_000020.csv": "c2e49b0eb8f89fc295e598d8cc7dddf52577717fb8c20894c1a1c89ae32a3f11",
        "frame_000020.csv.json": "bc9fe7968d39c877bc2fc16a4adf2ac6ce48b97ad8d8d41b71f44f38babd6a20",
        "frame_000024.csv": "6da90632584cf4daa7a5c167ec5259d7cba37d9898a8df70ff81d350d984b7eb",
        "frame_000024.csv.json": "99289280d30308bc78aec8665a3407f61ee843e64e07959c965bb198aee9209c",
        "frame_000028.csv": "734bd4372b0b5d2682c8ce067a381d1f62310dd316086ded5a842ed2cf94f61e",
        "frame_000028.csv.json": "cfa9c8e0eb442362044fbca045285f0df1ecff9996166dafabf7b186c9cbf36d",
        "frame_000032.csv": "3236a89692adf5e4c8005b73f3e62f4d16248c614ed0d971abc942c043539ee7",
        "frame_000032.csv.json": "21a6791714539efcca7892f86e0808bbd98acc308a9c54397d3cafd0c0677d3a",
        "frame_000036.csv": "d4aab569d5378ab1f87d71c9aac5dc174f847eafe80348464de34be4d656e4fb",
        "frame_000036.csv.json": "59a19d8f7d381baed6027d0bec7320ec4b0d0fb392f90e00e0aaa4088991c29d",
        "frame_000040.csv": "1fa475ffe402064d823874ab2d7ff55304eb06f5e9c73fc87ac5bdf7045a00d5",
        "frame_000040.csv.json": "f3864f3e1f307c0bca6140aad9c4f6300eb18829117babc0a2b215241f0d1101",
        "series.csv": "9ce7941563a429ffce8bdbfb842feb84c4fbe74798d1da1d36c303c5018d34b9",
    },
    "dirichlet": {
        "evolve_summary.json": "c09e494119212dcc2f8d2949037f63a1a2a9be7227addf13114ac83aa8e22e8a",
        "frame_000000.csv": "4f426b77e976fb7ca6c6867b871fd900cc0891e0767dee31ba9749f77a7a325b",
        "frame_000000.csv.json": "996e135d7d8fabbd4eb78775e021671ec1895c6dd2caa8f8c33618de84e54d32",
        "frame_000004.csv": "a66781d02e80b2fde96576f7d4de41031992302795b2ae1f90ef5dfaa892264e",
        "frame_000004.csv.json": "fe2ad917cd4d78576047772a4ba39802d3e9e2b162bafe6883ad4515a8b54ef0",
        "frame_000008.csv": "4c077af435b98f1eff3bf6c48abfa253853a2c56cf9ce22dcd9e0b878ef97ef3",
        "frame_000008.csv.json": "6816a4a13df7e1d6640831c40e87c63d011512e724ba93d3407215a8b92c8962",
        "frame_000012.csv": "365e242e125418d1d44488aaa6fe0f7f403743f027b3a1206ebe75c5fcd6b6ea",
        "frame_000012.csv.json": "a84d297a3bec56147449f1fcec940c3f29379dfbcd7903780b16da06cd9ca4ca",
        "frame_000016.csv": "d25d6e7c6e3740d950313ab0c907e9bc6adff9b797fbb8b14a77103e7885d5f0",
        "frame_000016.csv.json": "fb961697fe56bfd99612ed9bade90d0229701d29c37b1bc8815050a285e2926e",
        "frame_000020.csv": "ff99199a3263bfd7348ac2af8f6c55a5f38516e817ae76b3aa92c2e4a7a2f6d2",
        "frame_000020.csv.json": "a52cd0d828689808e362ae3a43817d28105e678ca5ddc5807d774b2294b0b2fb",
        "frame_000024.csv": "112f2ba44a21f6ed1ea719a852d16aea58432eeda43b1c435c5a4ce0a3e063af",
        "frame_000024.csv.json": "32ca34dc3f5063b4f1b04b4aa6e575a96669682a3fcaebde1d6b258fd0b1ae6d",
        "frame_000028.csv": "be53590ccbcdb839c319c252cb3d2f2a3b4c61c7824317197793decbc4b11a05",
        "frame_000028.csv.json": "ce48da93685ebf51c2d8a7ccad5ea6fdc18ceb4ca8dbd9279d47c3c638a826c8",
        "frame_000032.csv": "ad603c95642d7c2d9c964636dcf6196a474437b54097cfab0b39866ca7da3afd",
        "frame_000032.csv.json": "00892e23e0889ca99882e14adae5c7737b15b36791ff35fd3133fafdd1f1b8af",
        "frame_000036.csv": "353601a359a658887080bd04d023e6f3a45a2a22f3e3196a9e32c1eb7d070cb3",
        "frame_000036.csv.json": "95a25f5385c69d46e05c05abc4cea764cc7bbabf90496ebf20f9c085d723aced",
        "frame_000040.csv": "e1c69c903da84aeb6689eecd0799884e455c799992673bfe3f3c45b0da60795e",
        "frame_000040.csv.json": "0e1be2289e4c9bde6840799f79e75ec3083de538d9781f5786e09cc3b653fd1b",
        "series.csv": "c5772ade06ba76cda6c88d61a5e0663f4edb72ba74ea377223c308052985ede3",
    },
}

ENDPOINTS = {
    "periodic": {
        "hex": [
            "0x1.21c4797c68243p-3",
            "0x1.501ff1d86e608p-3",
            "0x1.66667a8a879bbp-2",
            "0x1.16bf318bbd386p-1",
            "0x1.1bfaa25acc92fp-1",
        ],
        "sha256": "4afacf859dbca43f7509b6520699eda59fb7e8d5bb91488d38d9a8d891cc4571",
        "exited": 0,
    },
    "dirichlet": {
        "hex": [
            "0x1.6899266912cebp-13",
            "0x1.578b5cccb1549p-11",
            "0x1.55ea279131a5ep-5",
            "0x1.1dc420c5d62d5p-3",
            "0x1.282c822f066bbp-3",
        ],
        "sha256": "eb3a752c2be19f230eed3c4281bf704b23260c78033faa4291261c477e55e6a5",
        "exited": 0,
    },
}


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_evolve_artifacts(tmp_path, boundary):
    assert evolve_artifact_hashes(tmp_path, boundary) == EVOLVE_HASHES[boundary]


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_trajectory_endpoints(boundary):
    ends, exited = trajectory_endpoints(boundary)
    want = ENDPOINTS[boundary]
    assert [float.hex(float(ends[i])) for i in (0, 1, 999, 1998, 1999)] == want["hex"]
    assert hashlib.sha256(ends.tobytes()).hexdigest() == want["sha256"]
    assert int(np.count_nonzero(exited)) == want["exited"]
