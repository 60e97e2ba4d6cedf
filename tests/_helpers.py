"""Shared random-state generators for the test suite (always seeded), and the digests of the read-outs that
take no eigh, which a test compares between OpenBLAS kernels and numpy CPU dispatch settings."""

import hashlib
import itertools

import numpy as np


def random_pure_jones(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_density(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q @ np.diag(d / np.abs(d))


def signed_zero_matrices(rng, n=4000):
    """n complex 2x2 matrices of signed zeros, subnormals and a few exact values, the 256 sign patterns of zeros first.

    Signed zeros are where re01 - (-re10) could differ from re01 + re10, and
    where a Hermitian average or a clamp could move a sign bit.
    """
    grid = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.5, -0.25])
    signed = rng.choice(grid, size=(n, 2, 2)) + 1j * rng.choice(grid, size=(n, 2, 2))
    signed[:256] = np.array(list(itertools.product([0.0, -0.0], repeat=8))).view(complex).reshape(256, 2, 2)
    return signed


def read_out_digests(n=300):
    """{read-out: sha256 of its results} over seeded inputs, for the read-outs that take no eigh: `compose`,
    `isotropy_report`, `trace_preservation_residual`, `dop_from_determinant`, `density_from_stokes` and
    `probabilities`.  The inputs are the channels, chi matrices and outputs of named schemes at random angles,
    at gamma 0 and 0.3, and random channels, chi matrices and states, a third of their entries signed zeros.  No
    input passes through a BLAS call, so every input has the same bits on every kernel."""
    import math

    from depolsim import channels, measurement, polarization, temporal, tomography

    rng = np.random.default_rng(62)
    digests = {}

    def record(name, *values):
        digest = digests.setdefault(name, hashlib.sha256())
        for value in values:
            digest.update(np.asarray(value).tobytes())

    def signed(shape):
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.3] = -0.0
        return x

    for k in range(n):
        scheme = channels.SCHEME_NAMES[k % len(channels.SCHEME_NAMES)]
        config = channels.build_scheme(scheme, float(rng.uniform(0.0, 90.0)), coherence=(0.0, 0.3)[k % 2])
        channel, other = channels.extract_channel(config), channels.StokesChannel(signed((3, 3)), signed(3))
        for outer, inner in ((channel, other), (other, channel), (channel, channel)):
            composed = channels.compose(outer, inner)
            record("compose", composed.m, composed.b)
        for each in (channel, other):
            record("isotropy_report", *channels.isotropy_report(each))
        chi = signed((4, 4)) + 1j * signed((4, 4))
        for each in (channels.extract_chi(config), chi, chi + chi.conj().T):
            record("trace_preservation_residual", tomography.trace_preservation_residual(each))
        v, radius = rng.normal(size=3), rng.random()
        pure = polarization.jones_from_stokes(v / math.hypot(*v.tolist()))
        mixed = polarization.density_from_stokes(v * (radius / math.hypot(*v.tolist())))
        for rho in (temporal.run_scheme(config, pure), mixed):
            record("dop_from_determinant", polarization.dop_from_determinant(rho))
            record("probabilities", measurement.probabilities(rho), measurement.probabilities(signed((2, 2)) + 0.5j))
            s = polarization.stokes_from_density(rho) * 0.999
            record("density_from_stokes", polarization.density_from_stokes(s))
    return {name: digest.hexdigest() for name, digest in digests.items()}
