// Package twoport implements two-port RF network algebra: conversions
// between scattering (S), admittance (Y), impedance (Z), chain (ABCD) and
// hybrid (h) parameters, cascading, power gains, and stability analysis.
//
// All S-parameters are referenced to a real characteristic impedance Z0
// (50 ohm unless stated otherwise). The Mat2 type is the common currency:
// a 2x2 complex matrix whose interpretation (S, Y, Z, ABCD...) is carried by
// the function names operating on it, matching RF engineering practice.
package twoport

import (
	"errors"
	"math"
	"math/cmplx"
)

// Z0Default is the reference impedance used throughout the project.
const Z0Default = 50.0

// ErrSingularNetwork reports a parameter conversion that does not exist for
// the given network (for example Y-parameters of a series element alone).
var ErrSingularNetwork = errors.New("twoport: conversion is singular for this network")

// Mat2 is a 2x2 complex matrix. M[i][j] follows the usual port ordering:
// index 0 is port 1 (input), index 1 is port 2 (output).
type Mat2 [2][2]complex128

// Mul returns the matrix product m * n.
func (m Mat2) Mul(n Mat2) Mat2 {
	return Mat2{
		{m[0][0]*n[0][0] + m[0][1]*n[1][0], m[0][0]*n[0][1] + m[0][1]*n[1][1]},
		{m[1][0]*n[0][0] + m[1][1]*n[1][0], m[1][0]*n[0][1] + m[1][1]*n[1][1]},
	}
}

// Add returns the elementwise sum m + n.
func (m Mat2) Add(n Mat2) Mat2 {
	return Mat2{
		{m[0][0] + n[0][0], m[0][1] + n[0][1]},
		{m[1][0] + n[1][0], m[1][1] + n[1][1]},
	}
}

// Scale returns m with every element multiplied by a.
func (m Mat2) Scale(a complex128) Mat2 {
	return Mat2{
		{a * m[0][0], a * m[0][1]},
		{a * m[1][0], a * m[1][1]},
	}
}

// Det returns the determinant of m.
func (m Mat2) Det() complex128 {
	return m[0][0]*m[1][1] - m[0][1]*m[1][0]
}

// Inv returns the matrix inverse of m. A matrix that is singular to working
// precision — not only an exactly zero determinant — returns
// ErrSingularNetwork: Hadamard's bound gives |det| <= ||row1||*||row2||, so a
// determinant many orders below that bound is pure cancellation noise and the
// cofactor inverse would amplify it into garbage (e.g. S->Z of an ideal
// series element, where I-S is rank one up to rounding).
//
// A square-root-free screen accepts most matrices before that test runs,
// without changing which matrices it accepts. With s_i row i's sum of
// |Re|+|Im| over both entries, the screen accepts when max(|Re d|, |Im d|)
// exceeds 1e-12*(2*s1)*(2*s2). Hypot returns p*sqrt(1+(q/p)^2) with p the
// larger magnitude, and the rounded square root lies in [1, sqrt(2)], so
// the computed |d| is at least max(|Re d|, |Im d|) and each computed row
// norm r_i is at most 2*s_i. Rounding is monotone, so 1e-12*r1*r2 is at
// most the screen's threshold and the test below would find |d| above it
// too. Matrices with NaN or infinite entries, zero and nearly singular
// ones, and ones whose threshold overflows fail the screen and take the
// test below.
func (m Mat2) Inv() (Mat2, error) {
	d := m.Det()
	if !clearlyNonsingular(m, d) {
		r1 := cmplx.Abs(m[0][0]) + cmplx.Abs(m[0][1])
		r2 := cmplx.Abs(m[1][0]) + cmplx.Abs(m[1][1])
		if cmplx.Abs(d) <= 1e-12*r1*r2 {
			return Mat2{}, ErrSingularNetwork
		}
	}
	return Mat2{
		{m[1][1] / d, -m[0][1] / d},
		{-m[1][0] / d, m[0][0] / d},
	}, nil
}

// clearlyNonsingular is Inv's square-root-free screen for a matrix m with
// determinant d: true only where Inv's Hadamard test would pass.
func clearlyNonsingular(m Mat2, d complex128) bool {
	s1 := abs1(m[0][0]) + abs1(m[0][1])
	s2 := abs1(m[1][0]) + abs1(m[1][1])
	t := 1e-12 * (2 * s1) * (2 * s2)
	return math.Abs(real(d)) > t || math.Abs(imag(d)) > t
}

// abs1 returns |Re v| + |Im v|.
func abs1(v complex128) float64 { return math.Abs(real(v)) + math.Abs(imag(v)) }

// ConjTranspose returns the Hermitian transpose of m.
func (m Mat2) ConjTranspose() Mat2 {
	return Mat2{
		{cmplx.Conj(m[0][0]), cmplx.Conj(m[1][0])},
		{cmplx.Conj(m[0][1]), cmplx.Conj(m[1][1])},
	}
}

// Transpose returns the (plain) transpose of m.
func (m Mat2) Transpose() Mat2 {
	return Mat2{
		{m[0][0], m[1][0]},
		{m[0][1], m[1][1]},
	}
}

// Congruence returns t * m * t^H, the congruence transform used for noise
// correlation matrices.
func (m Mat2) Congruence(t Mat2) Mat2 {
	return t.Mul(m).Mul(t.ConjTranspose())
}

// Identity2 is the 2x2 identity matrix.
func Identity2() Mat2 {
	return Mat2{{1, 0}, {0, 1}}
}

// MaxAbsDiff returns the largest elementwise magnitude difference between
// two matrices, for tests and verification harnesses.
func MaxAbsDiff(a, b Mat2) float64 {
	var m float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if d := cmplx.Abs(a[i][j] - b[i][j]); d > m {
				m = d
			}
		}
	}
	return m
}
