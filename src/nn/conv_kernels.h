#ifndef FACTION_NN_CONV_KERNELS_H_
#define FACTION_NN_CONV_KERNELS_H_

#include <cstddef>
#include <vector>

#include "tensor/im2col.h"

namespace faction {

/// Reusable per-worker scratch for the GEMM-lowered convolution kernels.
/// Buffers grow on demand and keep their capacity, so steady-state calls
/// allocate nothing. One ConvScratch must never be shared by concurrent
/// workers (Conv2d keeps one per parallel chunk).
struct ConvScratch {
  std::vector<double> col;     ///< (PatchSize x OutPositions), forward
  std::vector<double> colt;    ///< (OutPositions x PatchSize), backward dW
  std::vector<double> padded;  ///< (in_channels x padded image), backward dX
};

// Single-sample convolution kernels. Layouts (all row-major, CHW):
//   x:    g.InFlat()                      input image
//   w:    out_channels x g.PatchSize()    filters, tap order (ic, dr, dc)
//   bias: out_channels
//   y/dy: out_channels x g.OutPositions() output / its gradient
//   dx:   g.InFlat()                      input gradient (fully overwritten)
//   gw:   out_channels x g.PatchSize()    weight gradient (accumulated, +=)
//   gb:   out_channels                    bias gradient (accumulated, +=)
//
// The naive kernels are the bitwise-parity reference (the seed's loop nest,
// generalized to arbitrary kernel/stride/pad). The Gemm* kernels lower the
// same computation onto im2col + axpy panels while preserving the naive
// per-element floating-point accumulation order, so naive and GEMM results
// are bitwise identical (see DESIGN.md §10 for the ±0.0 caveat on padding
// taps — padding contributes exact +0.0/-0.0 terms that cannot change any
// finite accumulator).

/// Reference forward: y[oc][o] = bias[oc] + sum_k w[oc][k] * tap(k, o),
/// accumulated in ascending k with out-of-bounds taps skipped.
void NaiveConvForward(const ConvGeometry& g, std::size_t out_channels,
                      const double* x, const double* w, const double* bias,
                      double* y);

/// Reference backward. For each (oc, o) with dy != 0.0 (zero gradients are
/// skipped, matching the seed's post-ReLU sparsity shortcut): gb[oc] += dy;
/// then ascending k: gw[oc][k] += dy * tap, dx[tap] += dy * w[oc][k].
/// dx is zeroed first; gw/gb accumulate.
// lint-allow(test-only-api): naive-loop parity oracle for the GEMM backward
void NaiveConvBackward(const ConvGeometry& g, std::size_t out_channels,
                       const double* x, const double* w, const double* dy,
                       double* dx, double* gw, double* gb);

/// GEMM-lowered forward: im2col once, then per output channel one bias
/// broadcast followed by PatchSize unit-stride axpy passes over the output
/// row. Bitwise identical to NaiveConvForward.
void GemmConvForward(const ConvGeometry& g, std::size_t out_channels,
                     const double* x, const double* w, const double* bias,
                     double* y, ConvScratch* scratch);

/// GEMM-lowered backward: position-major im2col drives unit-stride axpy
/// panels for gw, and dx is scattered through a padded image buffer so the
/// padding branch disappears from the inner loop. Bitwise identical to
/// NaiveConvBackward (same dx/gw/gb semantics).
void GemmConvBackward(const ConvGeometry& g, std::size_t out_channels,
                      const double* x, const double* w, const double* dy,
                      double* dx, double* gw, double* gb,
                      ConvScratch* scratch);

}  // namespace faction

#endif  // FACTION_NN_CONV_KERNELS_H_
