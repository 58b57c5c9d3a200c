#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace a3cs::tensor {

Tensor::Tensor(Shape shape, float fill)
    : shape_(shape),
      data_(static_cast<std::size_t>(shape.numel()), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  A3CS_CHECK(static_cast<std::int64_t>(data_.size()) == shape_.numel(),
             "data size does not match shape " + shape_.to_string());
}

float& Tensor::at2(int i, int j) {
  A3CS_CHECK(shape_.rank() == 2, "at2 on non-matrix");
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float Tensor::at2(int i, int j) const {
  A3CS_CHECK(shape_.rank() == 2, "at2 on non-matrix");
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float& Tensor::at4(int n, int c, int h, int w) {
  A3CS_CHECK(shape_.rank() == 4, "at4 on non-NCHW tensor");
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
          shape_[3] +
      w;
  return data_[idx];
}

float Tensor::at4(int n, int c, int h, int w) const {
  A3CS_CHECK(shape_.rank() == 4, "at4 on non-NCHW tensor");
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
          shape_[3] +
      w;
  return data_[idx];
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::zero() {
  if (data_.empty()) return;
  std::memset(data_.data(), 0, data_.size() * sizeof(float));
}

Tensor Tensor::reshaped(Shape new_shape) const {
  A3CS_CHECK(new_shape.numel() == shape_.numel(),
             "reshape numel mismatch: " + shape_.to_string() + " -> " +
                 new_shape.to_string());
  return Tensor(new_shape, data_);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  A3CS_CHECK(same_shape(other), "operator+= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  A3CS_CHECK(same_shape(other), "operator-= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (float& x : data_) x *= s;
  return *this;
}

void Tensor::axpy(float s, const Tensor& other) {
  A3CS_CHECK(same_shape(other), "axpy shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float x : data_) acc += x;
  return static_cast<float>(acc);
}

float Tensor::max() const {
  A3CS_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  A3CS_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::abs(x));
  return m;
}

float Tensor::norm() const {
  double acc = 0.0;
  for (float x : data_) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::dot(const Tensor& other) const {
  A3CS_CHECK(same_shape(other), "dot shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    acc += static_cast<double>(data_[i]) * other.data_[i];
  }
  return static_cast<float>(acc);
}

Tensor operator+(Tensor a, const Tensor& b) {
  a += b;
  return a;
}

Tensor operator-(Tensor a, const Tensor& b) {
  a -= b;
  return a;
}

Tensor operator*(Tensor a, float s) {
  a *= s;
  return a;
}

}  // namespace a3cs::tensor
