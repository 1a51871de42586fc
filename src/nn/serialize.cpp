#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace pathrank::nn {
namespace {

constexpr uint32_t kMatrixMagic = 0x50524D31;  // "PRM1"
constexpr uint32_t kParamsMagic = 0x50525031;  // "PRP1"

void Put32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint32_t Get32(std::istream& in) {
  uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("truncated stream");
  return v;
}

void PutString(std::ostream& out, const std::string& s) {
  Put32(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string GetString(std::istream& in) {
  const uint32_t n = Get32(in);
  CheckFitsInStream(in, n, 1, "string length");
  std::string s(n, '\0');
  in.read(s.data(), n);
  if (!in) throw std::runtime_error("truncated stream");
  return s;
}

}  // namespace

void CheckFitsInStream(std::istream& in, uint64_t count, uint64_t item_bytes,
                       const std::string& what) {
  const std::streamoff here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(here);
  if (!in || here < 0 || end < here) {
    throw std::runtime_error("cannot size the stream to check " + what);
  }
  const auto left = static_cast<uint64_t>(end - here);
  if (item_bytes != 0 && count > left / item_bytes) {
    throw std::runtime_error(what + " (" + std::to_string(count) + " x " +
                             std::to_string(item_bytes) +
                             " bytes) exceeds the " + std::to_string(left) +
                             " bytes left in the stream");
  }
}

void WriteMatrix(std::ostream& out, const Matrix& m) {
  Put32(out, kMatrixMagic);
  Put32(out, static_cast<uint32_t>(m.rows()));
  Put32(out, static_cast<uint32_t>(m.cols()));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
}

Matrix ReadMatrix(std::istream& in) {
  if (Get32(in) != kMatrixMagic) {
    throw std::runtime_error("bad matrix magic");
  }
  const uint32_t rows = Get32(in);
  const uint32_t cols = Get32(in);
  // uint32 x uint32 cannot overflow uint64.
  CheckFitsInStream(in, uint64_t{rows} * cols, sizeof(float), "matrix shape");
  Matrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!in) throw std::runtime_error("truncated matrix payload");
  return m;
}

void SaveParameters(const ParameterList& params, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  Put32(out, kParamsMagic);
  Put32(out, static_cast<uint32_t>(params.size()));
  for (const Parameter* p : params) {
    PutString(out, p->name);
    WriteMatrix(out, p->value);
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

void LoadParameters(const ParameterList& params, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  if (Get32(in) != kParamsMagic) {
    throw std::runtime_error("bad params magic in " + path);
  }
  const uint32_t count = Get32(in);
  std::unordered_map<std::string, Matrix> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = GetString(in);
    loaded.emplace(std::move(name), ReadMatrix(in));
  }
  for (Parameter* p : params) {
    auto it = loaded.find(p->name);
    if (it == loaded.end()) {
      throw std::runtime_error("parameter not in checkpoint: " + p->name);
    }
    if (!it->second.SameShape(p->value)) {
      throw std::runtime_error("shape mismatch for parameter: " + p->name);
    }
    p->value = std::move(it->second);
  }
}

void SaveMatrix(const Matrix& m, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  WriteMatrix(out, m);
  if (!out) throw std::runtime_error("write failed: " + path);
}

Matrix LoadMatrix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return ReadMatrix(in);
}

}  // namespace pathrank::nn
