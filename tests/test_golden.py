"""Golden output bits of the time-stepping path and of the other callers
of the Laplacian backend.

The sha256 of every artifact of two smoke-size CLI ``evolve`` runs
(periodic and Dirichlet split-step; ``manifest.json`` holds
timings and is left out) and the bits of library ``integrate_trajectories``
endpoints are pinned, and so are the artifacts of ``qpot`` on a periodic,
a Dirichlet and a reduced radial field, of the box and hydrogen spectra and of the
ratios scenario.  A change meant to make a path cheaper or simpler without
changing its output must keep every one of them; a change that moves
numbers on purpose re-pins them and says why.

Floats are written with 17 significant digits, so the pins depend on the
numpy build (FFT, exp, sin/cos) as well as on qpotlab; they were taken with
the version in ``PINNED_WITH`` and are skipped under others.  The package
imports nothing else that computes.
"""

import hashlib

import numpy as np
import pytest

from qpotlab import dynamics, qpotential
from qpotlab.cli import main
from qpotlab.grid import DIRICHLET, PERIODIC, Grid, GridFunction, write_gridfunction

PINNED_WITH = {"numpy": "2.4.6"}

pytestmark = pytest.mark.skipif(
    {"numpy": np.__version__} != PINNED_WITH,
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
        cfg = dynamics.EvolutionConfig(dt=1e-3, steps=50, store_every=5)
    V = GridFunction(g, np.zeros(g.n))
    res = dynamics.evolve(psi0, V, spec, ELECTRON, cfg)
    rng = np.random.default_rng(1)
    seeds = dynamics.sample_from_density(psi0.amplitude(), 2000, rng=rng)
    traj = dynamics.integrate_trajectories(res, seeds, ELECTRON, substeps=4)
    return traj.endpoints(), traj.exited


# Periodic frames 32 and 40 were re-pinned when W moved to the real-input
# FFT: they moved by at most 9.4e-24 of max|psi|, and series.csv (norms and
# energies, drift 2.12e-15) kept its bytes.  Dirichlet series.csv was
# re-pinned when the Dirichlet gradient became the sine-series derivative:
# its energies moved from 520902.91783316166 to 520904.47739048884 (the
# 4th-order stencil's kinetic error at 256 points), the relative energy
# drift stayed 1.2e-14, and every frame kept its bytes.  Every Dirichlet
# artifact after frame 0 was re-pinned when the Dirichlet kinetic step
# moved from Crank-Nicolson to the sine modes: E0 kept its bits, the
# relative energy drift fell from 1.2e-14 to 4.0e-15 and the norm drift
# from 1.2e-14 to 4.0e-15.  Both series.csv were re-pinned when the energy
# became one quadratic form of the hierarchy's symbol on the grid's
# transform: 4 periodic and 6 Dirichlet energies moved by at most 1.7e-10
# eV (3.4e-16 relative, one to three ulps), the Dirichlet E0 by one ulp,
# and the relative energy drift read 2.12e-15 on both sides (periodic) and
# 4.02e-15 -> 4.47e-15 (Dirichlet); every frame and evolve_summary.json
# kept its bytes.  Dirichlet frames 4, 8, 24, 28, 36 and 40 were re-pinned
# when W's sine series took the kinetic step's DST-I pair (unnormalised
# forward, 1/N inverse) in place of the orthonormal one: they moved by at
# most 9.4e-24 of max|psi|, and series.csv and evolve_summary.json kept
# their bytes.
EVOLVE_HASHES = {
    "periodic": {
        "evolve_summary.json": "9f00a6556eed0192147fc53ff64e85e99c79aee51b2a2ec258e23fb298aaa425",
        "frame_000000.csv": "13dd981f27eec0926c323bc92e0026ab6a5c85ffa98dd35898c482ace4a843e4",
        "frame_000000.csv.json": "ac9e76d2bcec3e2355c9318b26cacab35472286f7f82112c81761f8e988a76da",
        "frame_000004.csv": "aef4898b4c0f856dd8fe064865080773f001b9ceab81fb62cfa52c9db3154a88",
        "frame_000004.csv.json": "1aeb40cd6e172a0727486b3bc171321b5eb2d6275d5f194fd1d8da9108cac754",
        "frame_000008.csv": "5da93a53d9eaf3b24095afe3a3fe6da203bf7acee02385023e8ff6668392e39c",
        "frame_000008.csv.json": "0b6afad8522cfafcfafc1589edf9c6a9f590acdd47e91cacfe363786d5e0addf",
        "frame_000012.csv": "6213968b1967ab3766aa3dd64ec3900a4d76358c97acb6a36ad120635ae4311f",
        "frame_000012.csv.json": "a83e1691e2612d002b87e9d9ec95441c9bc2cfce3822de34c63933ba079dad60",
        "frame_000016.csv": "c21a8e1cf4e4d564429358ea3ae32de476d090e64128da8434a7c6e88f71028b",
        "frame_000016.csv.json": "ea840a6b82f6b061463fe2c8898c7a007cee89ad4d18f0f952202e4879a64a99",
        "frame_000020.csv": "28b3fc762b1f0afa61f43543a49f5c8e069f2316666309069d05b4ec9a9efda5",
        "frame_000020.csv.json": "bc9fe7968d39c877bc2fc16a4adf2ac6ce48b97ad8d8d41b71f44f38babd6a20",
        "frame_000024.csv": "c62c0e7f8bff77e3b2a852c1f337c9c8e2debe22745301063a38d0898e81d6bf",
        "frame_000024.csv.json": "99289280d30308bc78aec8665a3407f61ee843e64e07959c965bb198aee9209c",
        "frame_000028.csv": "58d6fc4a8078294090f5e1203e05edab450126ce1e33b298c84059c22176a789",
        "frame_000028.csv.json": "cfa9c8e0eb442362044fbca045285f0df1ecff9996166dafabf7b186c9cbf36d",
        "frame_000032.csv": "d3c1c5ae0ffa751a7d99a062b6596946fe933e4aab7e73247685b46badef128f",
        "frame_000032.csv.json": "21a6791714539efcca7892f86e0808bbd98acc308a9c54397d3cafd0c0677d3a",
        "frame_000036.csv": "96832831b0dc5f9009523a9eeefd4f51bdedd1f704c6ee10f4202b2eb165414c",
        "frame_000036.csv.json": "59a19d8f7d381baed6027d0bec7320ec4b0d0fb392f90e00e0aaa4088991c29d",
        "frame_000040.csv": "70107b18dd2aa666dc5fcbf2c2b23d4cd61eaeb0cc1acee6220b851a33a546bc",
        "frame_000040.csv.json": "f3864f3e1f307c0bca6140aad9c4f6300eb18829117babc0a2b215241f0d1101",
        "series.csv": "312d31f1e507000d3e8ec38180630263ec96b9afe3bc87df4e3121678711968f",
    },
    "dirichlet": {
        "evolve_summary.json": "e1c895e5bff160fbed157838a86863363a9e3513ec9d6885d7bad293d496ba5c",
        "frame_000000.csv": "4f426b77e976fb7ca6c6867b871fd900cc0891e0767dee31ba9749f77a7a325b",
        "frame_000000.csv.json": "996e135d7d8fabbd4eb78775e021671ec1895c6dd2caa8f8c33618de84e54d32",
        "frame_000004.csv": "d2961beef582ed2f876ff1731d333f8657c8537faab855b0066abcd74a465615",
        "frame_000004.csv.json": "fe2ad917cd4d78576047772a4ba39802d3e9e2b162bafe6883ad4515a8b54ef0",
        "frame_000008.csv": "851890303102d5b3c64608d2c695c63bf7f2f89a38dd4aa6e71a3c625f45c23a",
        "frame_000008.csv.json": "6816a4a13df7e1d6640831c40e87c63d011512e724ba93d3407215a8b92c8962",
        "frame_000012.csv": "44797125617ac33343479c205690ef04a4ef0970d8bbbcdc846763934b5d4927",
        "frame_000012.csv.json": "a84d297a3bec56147449f1fcec940c3f29379dfbcd7903780b16da06cd9ca4ca",
        "frame_000016.csv": "692aaf239aa8b2624df7919151836b291f55417f2aaccdf4da5daf5b883c5823",
        "frame_000016.csv.json": "fb961697fe56bfd99612ed9bade90d0229701d29c37b1bc8815050a285e2926e",
        "frame_000020.csv": "6a2f629e1940be8e7d2fc9cd3cb61a664020a6d6b9c34e2aa240fe90462628f8",
        "frame_000020.csv.json": "a52cd0d828689808e362ae3a43817d28105e678ca5ddc5807d774b2294b0b2fb",
        "frame_000024.csv": "cb3adf54135fd06bd0e3d7eb3645bf6e781a6be0b829230d1da5f5fdce923392",
        "frame_000024.csv.json": "32ca34dc3f5063b4f1b04b4aa6e575a96669682a3fcaebde1d6b258fd0b1ae6d",
        "frame_000028.csv": "175b257f83a4a5b5cf66fde06a5557ab3575fe686b0467dbb2173003578b89e6",
        "frame_000028.csv.json": "ce48da93685ebf51c2d8a7ccad5ea6fdc18ceb4ca8dbd9279d47c3c638a826c8",
        "frame_000032.csv": "ddf8db4fdd3bcbfac9e0900ddc948dd6040150b5bdecec72df42e2df3d00dd07",
        "frame_000032.csv.json": "00892e23e0889ca99882e14adae5c7737b15b36791ff35fd3133fafdd1f1b8af",
        "frame_000036.csv": "6f0ddeaf075054306c96d8b074956084860c4902c3b01debcb22e81055bdd4a6",
        "frame_000036.csv.json": "95a25f5385c69d46e05c05abc4cea764cc7bbabf90496ebf20f9c085d723aced",
        "frame_000040.csv": "eee93e33337f29c5f6fe5166a77c705b216be5c34bf843b2fc50a06af33279d8",
        "frame_000040.csv.json": "0e1be2289e4c9bde6840799f79e75ec3083de538d9781f5786e09cc3b653fd1b",
        "series.csv": "8e018281385f92cd10a73ac347e82272c0273c26112db87c4b69ec4524dcb1ec",
    },
}

# The Dirichlet endpoints were re-pinned with the sine-series gradient: they
# moved by at most 1.3e-3 (median 4.7e-4) of the unit box, a third of the
# 257-point grid spacing; none exits either way.  They were re-pinned again
# with the sine-mode kinetic step: they moved by at most 1.2e-3 (median
# 1.1e-4), and none exits.  The packet starts at 0.17 of its peak at the
# wall node, which evolve zeroes, so these bits pin a run, not a converged
# trajectory.
ENDPOINTS = {
    "periodic": {
        "hex": [
            "0x1.21c4797c65f15p-3",
            "0x1.501ff1d874b21p-3",
            "0x1.66667a8a87881p-2",
            "0x1.16bf318bbd2d0p-1",
            "0x1.1bfaa25acc6f1p-1",
        ],
        "sha256": "b47b14846fb2f56c53d6202830da6971af6de7e38e919c4c7f0a9de639432f54",
        "exited": 0,
    },
    "dirichlet": {
        "hex": [
            "0x1.7020ec8ac26bap-13",
            "0x1.5eb7f73d848b7p-11",
            "0x1.51de90913c212p-5",
            "0x1.1dedc932aae63p-3",
            "0x1.2813e852f5772p-3",
        ],
        "sha256": "74d1d82cdcd98c732bbfc452750671eb7debd96a2576756cbe057de2b56a4aac",
        "exited": 0,
    },
}


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_evolve_artifacts(tmp_path, boundary):
    assert evolve_artifact_hashes(tmp_path, boundary) == EVOLVE_HASHES[boundary]


# The frames of trajectory_endpoints' Dirichlet packet, every step stored.
SINE_STEP_FRAMES = "8bbe8562f3cb9e97e4c90e792f609cd481f737362488e336fd390516229812fe"


def test_dirichlet_grid_steps_in_the_sine_basis():
    g = Grid.uniform(0.0, 1.0, 257, DIRICHLET)
    psi0 = dynamics.WaveField.gaussian(g, center=0.08, width=0.03, k0=-200.0)
    res = dynamics.evolve(
        psi0,
        GridFunction(g, np.zeros(g.n)),
        relativistic(0, 2),
        ELECTRON,
        dynamics.EvolutionConfig(dt=1e-3, steps=50),
    )
    frames = np.stack([f.values for f in res.frames])
    assert len(frames) == 51
    assert hashlib.sha256(frames.tobytes()).hexdigest() == SINE_STEP_FRAMES


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_trajectory_endpoints(boundary):
    ends, exited = trajectory_endpoints(boundary)
    want = ENDPOINTS[boundary]
    assert [float.hex(float(ends[i])) for i in (0, 1, 999, 1998, 1999)] == want["hex"]
    assert hashlib.sha256(ends.tobytes()).hexdigest() == want["sha256"]
    assert int(np.count_nonzero(exited)) == want["exited"]


# --------------------------------------------------------------------------
# Laplacian-backend callers outside the evolution: qpot on periodic,
# Dirichlet and reduced radial fields, the box and hydrogen spectra and the
# ratios scenario.
# --------------------------------------------------------------------------

QPOT_SPEC = "units = electron\nsource = relativistic\nmax_order = 4\n"


def qpot_field(kind):
    if kind == "periodic":
        g = Grid.uniform(0.0, 1.0, 128, PERIODIC)
        values = np.exp(np.cos(2.0 * np.pi * g.points))
    elif kind == "dirichlet":
        g = Grid.uniform(0.0, 1.0, 129, DIRICHLET)
        values = np.sin(np.pi * g.points)
    else:
        # the reduced radial field r e^{-r}, on a Dirichlet grid from r = 0
        g = Grid.uniform(0.0, 20.0, 513, DIRICHLET)
        values = g.points * np.exp(-g.points)
    return GridFunction(g, values).normalized()


def cli_artifact_hashes(out, argv):
    assert main([*argv, "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def qpot_artifact_hashes(tmp_path, kind):
    spec = tmp_path / "spec.cfg"
    spec.write_text(QPOT_SPEC)
    field = tmp_path / f"{kind}.csv"
    write_gridfunction(field, qpot_field(kind))
    return cli_artifact_hashes(
        tmp_path / "out", ["qpot", "--spec", str(spec), "--input", str(field)]
    )


def ratios_artifact_hashes(tmp_path):
    cfg = tmp_path / "ratios.cfg"
    cfg.write_text("")
    return cli_artifact_hashes(
        tmp_path / "out", ["run", "--scenario", "ratios", "--config", str(cfg)]
    )


BACKEND_ARGV = {
    "box": ["spectra", "--problem", "box", "--points", "513"],
    "hydrogen": ["spectra", "--problem", "hydrogen", "--radial-points", "2048"],
}

QPOT_HASHES = {
    "periodic": {
        "qpotential.csv": "b5cde8e0968f1f37ce8681b0623b6d34fbf336c3445226bf3bc132923f428b9b",
        "qpotential.csv.json": "95df2f36540dc6721be6fc064b265b4d1d034ac82d947375252d6474d72d4f4c",
    },
    "dirichlet": {
        "qpotential.csv": "6674896c49e0921d71424413b24e633e760c0a547d141cc8f955b03d00e97e8d",
        "qpotential.csv.json": "13f76b59875852f6850f1f2799dfb224c4fef763683c88cc8b44addc22fede3d",
    },
    "radial": {
        "qpotential.csv": "0c5911b9d7e7751170c42cdd3d5f48a7f2c030a48a117daab08756f867d337a6",
        "qpotential.csv.json": "13f76b59875852f6850f1f2799dfb224c4fef763683c88cc8b44addc22fede3d",
    },
}

# box_shifts.json and hydrogen_shifts.json were re-pinned when the shifts
# became the quadratic form of the term's symbol: each delta_E moved by one
# to three ulps (box order 0: 510998.95000000001 -> 510998.95000000013,
# order 4: -0.0013835516005020134 -> -0.0013835516005020136; hydrogen:
# -0.00088962014725293146 -> -0.00088962014725293157 and
# -0.00014516440481173454 -> -0.00014516440481173452), and every closed
# form and eigenvalues.csv kept its bytes.
BACKEND_HASHES = {
    "box": {
        "box_shifts.json": "b362fe8c9b51bbdad6a70130b4eb33901e8b31c7f607e3a456e8861a6926a01d",
        "eigenvalues.csv": "9bc7e0f680523836869f34e2724e9296fda722ebf86b14e1ac3c9c360a19f48e",
    },
    # the reduced radial field on [0, 40 a]: 2048 radii give relative
    # errors 1.77e-2 / 1.36e-2 (1s / 2s) against the textbook shifts and
    # 2.9e-3 / 2.2e-3 against their band-projected values
    "hydrogen": {
        "hydrogen_shifts.json": "01070741aff9039d8396836d1081673ebb19e00c0b7c489eb6a0f7352c2aefb2",
    },
}

# ratios.csv was re-pinned when the Dirichlet sine series took the DST-I
# pair with the 1/N inverse: the nuclear ratio_grid moved by one ulp,
# -0.10913275030452287 -> -0.10913275030452288.
RATIOS_HASHES = {
    "ratios.csv": "787adc6b4c1e999d7c02b6115cdf5c31af0b0caddbbaf74f641657ec804652c9",
}


@pytest.mark.parametrize("kind", ["periodic", "dirichlet", "radial"])
def test_qpot_artifacts(tmp_path, kind):
    assert qpot_artifact_hashes(tmp_path, kind) == QPOT_HASHES[kind]


@pytest.mark.parametrize("problem", sorted(BACKEND_ARGV))
def test_spectra_artifacts(tmp_path, problem):
    assert cli_artifact_hashes(tmp_path / "out", BACKEND_ARGV[problem]) == (
        BACKEND_HASHES[problem]
    )


def test_ratios_artifacts(tmp_path):
    assert ratios_artifact_hashes(tmp_path) == RATIOS_HASHES
