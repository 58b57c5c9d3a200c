// Dense float tensor with value semantics. The single data container used by
// the NN library, the RL stack and the NAS/DAS engines.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/shape.h"

namespace a3cs::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  Tensor(Shape shape, std::vector<float> data);

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  // Flat element access (bounds-checked in debug via vector::at in at()).
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }
  float& at(std::int64_t i) { return data_.at(static_cast<std::size_t>(i)); }
  float at(std::int64_t i) const { return data_.at(static_cast<std::size_t>(i)); }

  // Multi-dimensional accessors; rank must match.
  float& at2(int i, int j);
  float at2(int i, int j) const;
  float& at4(int n, int c, int h, int w);
  float at4(int n, int c, int h, int w) const;

  void fill(float v);
  // fill(0.0f) as one memset: gradient zeroing touches every parameter's
  // buffer each step, mostly out of cache.
  void zero();

  // Reinterpret the buffer under a new shape with identical numel.
  Tensor reshaped(Shape new_shape) const;

  // In-place arithmetic (shapes must match exactly).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float s);

  // this += s * other (axpy), the workhorse of optimizers.
  void axpy(float s, const Tensor& other);

  float sum() const;
  float max() const;
  float min() const;
  float abs_max() const;
  // L2 norm of the flattened tensor.
  float norm() const;
  float dot(const Tensor& other) const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  Shape shape_;
  std::vector<float> data_;
};

Tensor operator+(Tensor a, const Tensor& b);
Tensor operator-(Tensor a, const Tensor& b);
Tensor operator*(Tensor a, float s);

}  // namespace a3cs::tensor
