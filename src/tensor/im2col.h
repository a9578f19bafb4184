#ifndef FACTION_TENSOR_IM2COL_H_
#define FACTION_TENSOR_IM2COL_H_

#include <cstddef>

namespace faction {

/// Geometry of a 2-D convolution over CHW-flattened images. Generalizes the
/// fixed 3x3/stride-1/pad-1 case used by Conv2d so the lowering kernels can
/// be exercised (and parity-tested) on odd shapes, strides, and paddings.
struct ConvGeometry {
  std::size_t in_channels = 1;
  std::size_t height = 1;
  std::size_t width = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;

  std::size_t OutHeight() const {
    return (height + 2 * pad - kernel) / stride + 1;
  }
  std::size_t OutWidth() const {
    return (width + 2 * pad - kernel) / stride + 1;
  }
  /// Elements in one input image (in_channels x height x width).
  std::size_t InFlat() const { return in_channels * height * width; }
  /// Elements in one receptive-field patch (in_channels x kernel x kernel);
  /// the K dimension of the lowered GEMM.
  std::size_t PatchSize() const { return in_channels * kernel * kernel; }
  /// Output positions per channel (the N dimension of the lowered GEMM).
  std::size_t OutPositions() const { return OutHeight() * OutWidth(); }

  /// True when the kernel fits the padded image and stride/kernel are
  /// nonzero — the precondition of every kernel below.
  bool Valid() const {
    return in_channels > 0 && kernel > 0 && stride > 0 &&
           height + 2 * pad >= kernel && width + 2 * pad >= kernel;
  }
};

/// Lowers one CHW image (g.InFlat() doubles) into patch-major column form:
/// col has shape (PatchSize x OutPositions), row k = (ic*kernel+dr)*kernel+dc
/// holding the input tap at kernel offset (dr,dc) of channel ic for every
/// output position in row-major (OutHeight, OutWidth) order. Padding taps
/// are written as +0.0. `col` must hold PatchSize()*OutPositions() doubles;
/// every element is overwritten.
void Im2Col(const double* img, const ConvGeometry& g, double* col);

/// Same lowering but position-major: col has shape
/// (OutPositions x PatchSize), row o holding the full receptive-field patch
/// of output position o. This is the layout the weight-gradient GEMM wants
/// (unit-stride over the patch axis). Every element is overwritten.
void Im2ColRows(const double* img, const ConvGeometry& g, double* col);

/// Adjoint of Im2Col: scatter-adds a patch-major column buffer back into
/// image form. `img` (g.InFlat() doubles) is zeroed first, then every
/// in-bounds tap of `col` (PatchSize x OutPositions) is accumulated in
/// ascending (k, o) order; padding taps are dropped. Note: Col2Im sums the
/// contributions to one pixel in (k, o) order, which is NOT the (oc, o, k)
/// order the naive convolution backward uses — the bitwise-parity dX path
/// in conv_kernels.cc therefore uses a padded scatter instead. Col2Im is
/// the general-purpose adjoint, used by tests to pin the im2col/col2im
/// pair to the gather/scatter identity.
// lint-allow(test-only-api): adjoint that pins Im2Col's gather/scatter identity
void Col2Im(const double* col, const ConvGeometry& g, double* img);

}  // namespace faction

#endif  // FACTION_TENSOR_IM2COL_H_
