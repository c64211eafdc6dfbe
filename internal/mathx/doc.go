// Package mathx provides the numerical substrate shared by all gnsslna
// packages: dense real and complex matrices with LU factorization, numerical
// differentiation, polynomial utilities, a Goertzel DFT for single-bin
// spectral measurements, descriptive statistics, and decibel conversion
// helpers.
//
// Everything is written against the standard library only. The matrix types
// are deliberately small and allocation-conscious rather than general: the
// largest systems solved in this project are modified-nodal-analysis
// matrices with a few dozen nodes.
package mathx
