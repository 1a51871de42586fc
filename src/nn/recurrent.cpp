#include "nn/recurrent.h"

#include <algorithm>
#include <stdexcept>

#include "nn/layer_util.h"

namespace pathrank::nn {
namespace {

/// out[i] = dh[i] * g[i] * (1 - g[i])  (sigmoid derivative through gate g).
void SigmoidBackward(const Matrix& dh, const Matrix& g, Matrix* out) {
  PR_CHECK(dh.SameShape(g));
  if (!out->SameShape(g)) out->Resize(g.rows(), g.cols());
  const float* pd = dh.data();
  const float* pg = g.data();
  float* po = out->data();
  for (size_t i = 0; i < g.size(); ++i) {
    po[i] = pd[i] * pg[i] * (1.0f - pg[i]);
  }
}

/// out[i] = dh[i] * (1 - t[i]^2)  (tanh derivative through activation t).
void TanhBackward(const Matrix& dh, const Matrix& t, Matrix* out) {
  PR_CHECK(dh.SameShape(t));
  if (!out->SameShape(t)) out->Resize(t.rows(), t.cols());
  const float* pd = dh.data();
  const float* pt = t.data();
  float* po = out->data();
  for (size_t i = 0; i < t.size(); ++i) {
    po[i] = pd[i] * (1.0f - pt[i] * pt[i]);
  }
}

/// Slots of each cell's activations in RecurrentScratch::gates.
enum GruGate : size_t { kZ, kR, kHhat, kRh, kGruGates };
enum RnnGate : size_t { kHnew, kRnnGates };
enum LstmGate : size_t { kI, kF, kO, kG, kCNew, kTanhCNew, kLstmGates };

/// Each cell's gradient-set slots, in its Parameters() order.
enum GruParam : size_t { kWz, kWr, kWh, kUz, kUr, kUh, kBz, kBr, kBh };
enum RnnParam : size_t { kW, kU, kB };

/// Sizes `s` for a forward over `num_steps` steps of [batch x hidden]:
/// hidden states (plus cell states when `cell_state`) and `num_gates` gate
/// buffers. Every gate slot is fully written before it is read.
void PrepareScratch(RecurrentScratch* s, size_t num_steps, size_t batch,
                    size_t hidden, size_t num_gates, bool cell_state) {
  EnsureStepShapes(&s->h, num_steps + 1, batch, hidden);
  s->h[0].Zero();  // zero initial state
  if (cell_state) {
    EnsureStepShapes(&s->c, num_steps + 1, batch, hidden);
    s->c[0].Zero();
  }
  const size_t slots = s->record ? num_steps : 1;
  for (size_t k = 0; k < num_gates; ++k) {
    EnsureStepShapes(&s->gates[k], slots, batch, hidden);
  }
}

/// Throws std::logic_error unless `tape` recorded a Forward over `x_steps`
/// of a cell with `num_gates` gate buffers, and `grads` is a slice for
/// `num_params` parameters.
void CheckBackwardArgs(const RecurrentScratch& tape,
                       const std::vector<Matrix>& x_steps, size_t num_gates,
                       GradientSpan grads, size_t num_params) {
  const size_t num_steps = x_steps.size();
  PR_CHECK(num_steps > 0 && tape.record && tape.h.size() == num_steps + 1 &&
           tape.h[0].rows() == x_steps[0].rows() &&
           tape.gates[num_gates - 1].size() == num_steps)
      << "Backward needs a tape that recorded these steps";
  PR_CHECK(grads.size() == num_params) << "gradient slice size mismatch";
}

}  // namespace

std::string CellTypeName(CellType type) {
  switch (type) {
    case CellType::kGru:
      return "gru";
    case CellType::kRnn:
      return "rnn";
    case CellType::kLstm:
      return "lstm";
  }
  return "?";
}

CellType ParseCellType(const std::string& name) {
  if (name == "gru") return CellType::kGru;
  if (name == "rnn") return CellType::kRnn;
  if (name == "lstm") return CellType::kLstm;
  throw std::invalid_argument("unknown cell type: " + name);
}

// ---------------------------------------------------------------- GRU ----

GruLayer::GruLayer(size_t input_size, size_t hidden_size, pathrank::Rng& rng,
                   const std::string& p)
    : GruLayer(input_size, hidden_size, kSkipInit, p) {
  for (Parameter* w : {&wz_, &wr_, &wh_, &uz_, &ur_, &uh_}) {
    XavierInit(&w->value, rng);
  }
}

GruLayer::GruLayer(size_t input_size, size_t hidden_size, SkipInit,
                   const std::string& p)
    : wz_(p + ".wz", input_size, hidden_size),
      wr_(p + ".wr", input_size, hidden_size),
      wh_(p + ".wh", input_size, hidden_size),
      uz_(p + ".uz", hidden_size, hidden_size),
      ur_(p + ".ur", hidden_size, hidden_size),
      uh_(p + ".uh", hidden_size, hidden_size),
      bz_(p + ".bz", 1, hidden_size),
      br_(p + ".br", 1, hidden_size),
      bh_(p + ".bh", 1, hidden_size) {}

void GruLayer::Forward(const std::vector<Matrix>& x_steps,
                       const std::vector<int32_t>& lengths,
                       RecurrentScratch* s, Matrix* final_h) const {
  const size_t num_steps = x_steps.size();
  PR_CHECK(num_steps > 0);
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  // Gates are computed directly into their scratch slot, so each step
  // allocates nothing.
  PrepareScratch(s, num_steps, batch, hidden, kGruGates,
                 /*cell_state=*/false);

  for (size_t t = 0; t < num_steps; ++t) {
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = s->h[t];
    PR_CHECK(x.cols() == input_size());

    Matrix& z = s->gate(kZ, t);
    GemmNN(x, wz_.value, &z);
    GemmNN(h_prev, uz_.value, &z, 1.0f, 1.0f);
    AddRowBroadcast(bz_.value, &z);
    SigmoidInPlace(&z);

    Matrix& r = s->gate(kR, t);
    GemmNN(x, wr_.value, &r);
    GemmNN(h_prev, ur_.value, &r, 1.0f, 1.0f);
    AddRowBroadcast(br_.value, &r);
    SigmoidInPlace(&r);

    Matrix& rh = s->gate(kRh, t);
    Hadamard(r, h_prev, &rh);

    Matrix& hhat = s->gate(kHhat, t);
    GemmNN(x, wh_.value, &hhat);
    GemmNN(rh, uh_.value, &hhat, 1.0f, 1.0f);
    AddRowBroadcast(bh_.value, &hhat);
    TanhInPlace(&hhat);

    // h_new = h_prev + m*z*(hhat - h_prev): masked rows keep h_prev.
    const auto mask = StepMask(lengths, t);
    Matrix& h_new = s->h[t + 1];
    for (size_t b = 0; b < batch; ++b) {
      float* hn = h_new.row(b);
      const float* hp = h_prev.row(b);
      if (mask[b] == 0.0f) {
        std::copy(hp, hp + hidden, hn);
        continue;
      }
      const float* zz = z.row(b);
      const float* hh = hhat.row(b);
      for (size_t c = 0; c < hidden; ++c) {
        hn[c] = (1.0f - zz[c]) * hp[c] + zz[c] * hh[c];
      }
    }
  }
  *final_h = s->h[num_steps];
}

void GruLayer::BackwardImpl(const std::vector<Matrix>& x_steps,
                            const std::vector<int32_t>& lengths,
                            const RecurrentScratch& tape,
                            const Matrix* d_final_h,
                            const std::vector<Matrix>* d_h_steps,
                            GradientSpan grads,
                            std::vector<Matrix>* d_x_steps) const {
  CheckBackwardArgs(tape, x_steps, kGruGates, grads, Parameters().size());
  const size_t num_steps = x_steps.size();
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  EnsureStepShapes(d_x_steps, num_steps, batch, input_size());
  Matrix dh(batch, hidden);
  if (d_final_h != nullptr) dh = *d_final_h;
  // Scratch: every element is overwritten before use each step.
  Matrix dh_prev(batch, hidden);
  Matrix dhhat(batch, hidden);
  Matrix dz_raw(batch, hidden);
  Matrix da(batch, hidden);
  Matrix drh(batch, hidden);
  Matrix dr(batch, hidden);

  for (size_t t = num_steps; t-- > 0;) {
    if (d_h_steps != nullptr) dh.Add((*d_h_steps)[t]);
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = tape.h[t];
    const Matrix& z = tape.gate(kZ, t);
    const Matrix& r = tape.gate(kR, t);
    const Matrix& hhat = tape.gate(kHhat, t);
    const auto mask = StepMask(lengths, t);

    Matrix& dx = (*d_x_steps)[t];

    // dhhat = dh * z * m ;  dz_raw = dh * (hhat - h_prev) * m
    // dh_prev = dh * (1 - z*m)
    for (size_t b = 0; b < batch; ++b) {
      const float m = mask[b];
      const float* pdh = dh.row(b);
      const float* pz = z.row(b);
      const float* phh = hhat.row(b);
      const float* php = h_prev.row(b);
      float* pdhh = dhhat.row(b);
      float* pdz = dz_raw.row(b);
      float* pdhp = dh_prev.row(b);
      for (size_t c = 0; c < hidden; ++c) {
        const float zm = pz[c] * m;
        pdhh[c] = pdh[c] * zm;
        pdz[c] = pdh[c] * (phh[c] - php[c]) * m;
        pdhp[c] = pdh[c] * (1.0f - zm);
      }
    }

    // Candidate branch.
    TanhBackward(dhhat, hhat, &da);
    GemmTN(x, da, &grads[kWh], 1.0f, 1.0f);
    GemmTN(tape.gate(kRh, t), da, &grads[kUh], 1.0f, 1.0f);
    AddColumnSums(da, &grads[kBh]);
    GemmNT(da, wh_.value, &dx, 1.0f, 0.0f);
    GemmNT(da, uh_.value, &drh, 1.0f, 0.0f);

    // Reset branch: drh splits into dr (through r) and dh_prev (through h).
    Hadamard(drh, h_prev, &dr);
    {
      // dh_prev += drh * r
      const float* pd = drh.data();
      const float* pr = r.data();
      float* po = dh_prev.data();
      for (size_t i = 0; i < drh.size(); ++i) po[i] += pd[i] * pr[i];
    }

    // Update gate.
    SigmoidBackward(dz_raw, z, &da);
    GemmTN(x, da, &grads[kWz], 1.0f, 1.0f);
    GemmTN(h_prev, da, &grads[kUz], 1.0f, 1.0f);
    AddColumnSums(da, &grads[kBz]);
    GemmNT(da, wz_.value, &dx, 1.0f, 1.0f);
    GemmNT(da, uz_.value, &dh_prev, 1.0f, 1.0f);

    // Reset gate.
    SigmoidBackward(dr, r, &da);
    GemmTN(x, da, &grads[kWr], 1.0f, 1.0f);
    GemmTN(h_prev, da, &grads[kUr], 1.0f, 1.0f);
    AddColumnSums(da, &grads[kBr]);
    GemmNT(da, wr_.value, &dx, 1.0f, 1.0f);
    GemmNT(da, ur_.value, &dh_prev, 1.0f, 1.0f);

    std::swap(dh, dh_prev);
  }
}

ParameterList GruLayer::Parameters() {
  return {&wz_, &wr_, &wh_, &uz_, &ur_, &uh_, &bz_, &br_, &bh_};
}

ConstParameterList GruLayer::Parameters() const {
  return {&wz_, &wr_, &wh_, &uz_, &ur_, &uh_, &bz_, &br_, &bh_};
}

// ---------------------------------------------------------------- RNN ----

RnnLayer::RnnLayer(size_t input_size, size_t hidden_size, pathrank::Rng& rng,
                   const std::string& p)
    : RnnLayer(input_size, hidden_size, kSkipInit, p) {
  XavierInit(&w_.value, rng);
  XavierInit(&u_.value, rng);
}

RnnLayer::RnnLayer(size_t input_size, size_t hidden_size, SkipInit,
                   const std::string& p)
    : w_(p + ".w", input_size, hidden_size),
      u_(p + ".u", hidden_size, hidden_size),
      b_(p + ".b", 1, hidden_size) {}

void RnnLayer::Forward(const std::vector<Matrix>& x_steps,
                       const std::vector<int32_t>& lengths,
                       RecurrentScratch* s, Matrix* final_h) const {
  const size_t num_steps = x_steps.size();
  PR_CHECK(num_steps > 0);
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  PrepareScratch(s, num_steps, batch, hidden, kRnnGates,
                 /*cell_state=*/false);

  for (size_t t = 0; t < num_steps; ++t) {
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = s->h[t];
    Matrix& hnew = s->gate(kHnew, t);
    GemmNN(x, w_.value, &hnew);
    GemmNN(h_prev, u_.value, &hnew, 1.0f, 1.0f);
    AddRowBroadcast(b_.value, &hnew);
    TanhInPlace(&hnew);

    const auto mask = StepMask(lengths, t);
    Matrix& h_new = s->h[t + 1];
    for (size_t bb = 0; bb < batch; ++bb) {
      const float* src = mask[bb] == 0.0f ? h_prev.row(bb) : hnew.row(bb);
      std::copy(src, src + hidden, h_new.row(bb));
    }
  }
  *final_h = s->h[num_steps];
}

void RnnLayer::BackwardImpl(const std::vector<Matrix>& x_steps,
                            const std::vector<int32_t>& lengths,
                            const RecurrentScratch& tape,
                            const Matrix* d_final_h,
                            const std::vector<Matrix>* d_h_steps,
                            GradientSpan grads,
                            std::vector<Matrix>* d_x_steps) const {
  CheckBackwardArgs(tape, x_steps, kRnnGates, grads, Parameters().size());
  const size_t num_steps = x_steps.size();
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  EnsureStepShapes(d_x_steps, num_steps, batch, input_size());
  Matrix dh(batch, hidden);
  if (d_final_h != nullptr) dh = *d_final_h;
  // Scratch: fully overwritten each step.
  Matrix dh_prev(batch, hidden);
  Matrix dhnew(batch, hidden);
  Matrix da(batch, hidden);

  for (size_t t = num_steps; t-- > 0;) {
    if (d_h_steps != nullptr) dh.Add((*d_h_steps)[t]);
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = tape.h[t];
    const auto mask = StepMask(lengths, t);

    for (size_t bb = 0; bb < batch; ++bb) {
      const float m = mask[bb];
      const float* pdh = dh.row(bb);
      float* pn = dhnew.row(bb);
      float* pp = dh_prev.row(bb);
      for (size_t c = 0; c < hidden; ++c) {
        pn[c] = pdh[c] * m;
        pp[c] = pdh[c] * (1.0f - m);
      }
    }

    TanhBackward(dhnew, tape.gate(kHnew, t), &da);
    GemmTN(x, da, &grads[kW], 1.0f, 1.0f);
    GemmTN(h_prev, da, &grads[kU], 1.0f, 1.0f);
    AddColumnSums(da, &grads[kB]);
    Matrix& dx = (*d_x_steps)[t];
    GemmNT(da, w_.value, &dx, 1.0f, 0.0f);
    GemmNT(da, u_.value, &dh_prev, 1.0f, 1.0f);

    std::swap(dh, dh_prev);
  }
}

ParameterList RnnLayer::Parameters() { return {&w_, &u_, &b_}; }

ConstParameterList RnnLayer::Parameters() const { return {&w_, &u_, &b_}; }

// --------------------------------------------------------------- LSTM ----

LstmLayer::LstmLayer(size_t input_size, size_t hidden_size,
                     pathrank::Rng& rng, const std::string& p)
    : LstmLayer(input_size, hidden_size, kSkipInit, p) {
  for (Parameter* w : {&wi_, &wf_, &wo_, &wg_, &ui_, &uf_, &uo_, &ug_}) {
    XavierInit(&w->value, rng);
  }
  bf_.value.Fill(1.0f);  // standard forget-gate bias init
}

LstmLayer::LstmLayer(size_t input_size, size_t hidden_size, SkipInit,
                     const std::string& p)
    : wi_(p + ".wi", input_size, hidden_size),
      wf_(p + ".wf", input_size, hidden_size),
      wo_(p + ".wo", input_size, hidden_size),
      wg_(p + ".wg", input_size, hidden_size),
      ui_(p + ".ui", hidden_size, hidden_size),
      uf_(p + ".uf", hidden_size, hidden_size),
      uo_(p + ".uo", hidden_size, hidden_size),
      ug_(p + ".ug", hidden_size, hidden_size),
      bi_(p + ".bi", 1, hidden_size),
      bf_(p + ".bf", 1, hidden_size),
      bo_(p + ".bo", 1, hidden_size),
      bg_(p + ".bg", 1, hidden_size) {}

void LstmLayer::Forward(const std::vector<Matrix>& x_steps,
                        const std::vector<int32_t>& lengths,
                        RecurrentScratch* s, Matrix* final_h) const {
  const size_t num_steps = x_steps.size();
  PR_CHECK(num_steps > 0);
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  PrepareScratch(s, num_steps, batch, hidden, kLstmGates,
                 /*cell_state=*/true);

  // Gates are computed directly into their scratch slot.
  auto gate = [](const Matrix& x, const Matrix& h_prev, const Parameter& w,
                 const Parameter& u, const Parameter& b, bool is_tanh,
                 Matrix* out) {
    GemmNN(x, w.value, out);
    GemmNN(h_prev, u.value, out, 1.0f, 1.0f);
    AddRowBroadcast(b.value, out);
    if (is_tanh) {
      TanhInPlace(out);
    } else {
      SigmoidInPlace(out);
    }
  };

  for (size_t t = 0; t < num_steps; ++t) {
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = s->h[t];
    const Matrix& c_prev = s->c[t];
    Matrix& ig = s->gate(kI, t);
    Matrix& fg = s->gate(kF, t);
    Matrix& og = s->gate(kO, t);
    Matrix& gg = s->gate(kG, t);
    gate(x, h_prev, wi_, ui_, bi_, false, &ig);
    gate(x, h_prev, wf_, uf_, bf_, false, &fg);
    gate(x, h_prev, wo_, uo_, bo_, false, &og);
    gate(x, h_prev, wg_, ug_, bg_, true, &gg);

    Matrix& cn = s->gate(kCNew, t);
    for (size_t bb = 0; bb < batch; ++bb) {
      const float* pf = fg.row(bb);
      const float* pi = ig.row(bb);
      const float* pg = gg.row(bb);
      const float* pc = c_prev.row(bb);
      float* pcn = cn.row(bb);
      for (size_t cidx = 0; cidx < hidden; ++cidx) {
        pcn[cidx] = pf[cidx] * pc[cidx] + pi[cidx] * pg[cidx];
      }
    }
    Matrix& tanh_cn = s->gate(kTanhCNew, t);
    tanh_cn = cn;
    TanhInPlace(&tanh_cn);

    const auto mask = StepMask(lengths, t);
    Matrix& h_next = s->h[t + 1];
    Matrix& c_next = s->c[t + 1];
    for (size_t bb = 0; bb < batch; ++bb) {
      float* ph = h_next.row(bb);
      float* pc = c_next.row(bb);
      if (mask[bb] == 0.0f) {
        std::copy(h_prev.row(bb), h_prev.row(bb) + hidden, ph);
        std::copy(c_prev.row(bb), c_prev.row(bb) + hidden, pc);
        continue;
      }
      const float* po = og.row(bb);
      const float* ptc = tanh_cn.row(bb);
      const float* pcn = cn.row(bb);
      for (size_t cidx = 0; cidx < hidden; ++cidx) {
        ph[cidx] = po[cidx] * ptc[cidx];
        pc[cidx] = pcn[cidx];
      }
    }
  }
  *final_h = s->h[num_steps];
}

void LstmLayer::BackwardImpl(const std::vector<Matrix>& x_steps,
                             const std::vector<int32_t>& lengths,
                             const RecurrentScratch& tape,
                             const Matrix* d_final_h,
                             const std::vector<Matrix>* d_h_steps,
                             GradientSpan grads,
                             std::vector<Matrix>* d_x_steps) const {
  CheckBackwardArgs(tape, x_steps, kLstmGates, grads, Parameters().size());
  const size_t num_steps = x_steps.size();
  const size_t batch = x_steps[0].rows();
  const size_t hidden = hidden_size();

  EnsureStepShapes(d_x_steps, num_steps, batch, input_size());
  Matrix dh(batch, hidden);
  if (d_final_h != nullptr) dh = *d_final_h;
  Matrix dc(batch, hidden);  // zero: loss reads h only
  // Scratch: fully overwritten each step.
  Matrix dh_prev(batch, hidden);
  Matrix dc_prev(batch, hidden);
  Matrix dgate(batch, hidden);
  Matrix da(batch, hidden);
  Matrix dc_new(batch, hidden);
  Matrix dh_new(batch, hidden);

  for (size_t t = num_steps; t-- > 0;) {
    if (d_h_steps != nullptr) dh.Add((*d_h_steps)[t]);
    const Matrix& x = x_steps[t];
    const Matrix& h_prev = tape.h[t];
    const Matrix& c_prev = tape.c[t];
    const Matrix& ig = tape.gate(kI, t);
    const Matrix& fg = tape.gate(kF, t);
    const Matrix& og = tape.gate(kO, t);
    const Matrix& gg = tape.gate(kG, t);
    const Matrix& tanh_cn = tape.gate(kTanhCNew, t);
    const auto mask = StepMask(lengths, t);

    Matrix& dx = (*d_x_steps)[t];

    // Pointwise split of dh/dc across the mask, and cell backward.
    for (size_t bb = 0; bb < batch; ++bb) {
      const float m = mask[bb];
      const float* pdh = dh.row(bb);
      const float* pdc = dc.row(bb);
      const float* po = og.row(bb);
      const float* ptc = tanh_cn.row(bb);
      const float* pf = fg.row(bb);
      float* pdhn = dh_new.row(bb);
      float* pdcn = dc_new.row(bb);
      float* pdhp = dh_prev.row(bb);
      float* pdcp = dc_prev.row(bb);
      for (size_t cidx = 0; cidx < hidden; ++cidx) {
        const float dhn = pdh[cidx] * m;
        pdhn[cidx] = dhn;
        const float dcn =
            pdc[cidx] * m + dhn * po[cidx] * (1.0f - ptc[cidx] * ptc[cidx]);
        pdcn[cidx] = dcn;
        pdhp[cidx] = pdh[cidx] * (1.0f - m);
        pdcp[cidx] = pdc[cidx] * (1.0f - m) + dcn * pf[cidx];
      }
    }

    // Gate k's parameters sit at k (w), 4 + k (u) and 8 + k (b) in
    // Parameters() order, and its activation is tape gate k.
    auto backprop_gate = [&](const Matrix& dgate_raw, LstmGate k,
                             const Parameter& w, const Parameter& u,
                             bool first_dx) {
      const Matrix& act = tape.gate(k, t);
      if (k == kG) {
        TanhBackward(dgate_raw, act, &da);
      } else {
        SigmoidBackward(dgate_raw, act, &da);
      }
      GemmTN(x, da, &grads[k], 1.0f, 1.0f);
      GemmTN(h_prev, da, &grads[4 + k], 1.0f, 1.0f);
      AddColumnSums(da, &grads[8 + k]);
      GemmNT(da, w.value, &dx, 1.0f, first_dx ? 0.0f : 1.0f);
      GemmNT(da, u.value, &dh_prev, 1.0f, 1.0f);
    };

    // Output gate: dO = dh_new * tanh_c_new.
    Hadamard(dh_new, tanh_cn, &dgate);
    backprop_gate(dgate, kO, wo_, uo_, /*first_dx=*/true);
    // Input gate: dI = dc_new * g.
    Hadamard(dc_new, gg, &dgate);
    backprop_gate(dgate, kI, wi_, ui_, false);
    // Forget gate: dF = dc_new * c_prev.
    Hadamard(dc_new, c_prev, &dgate);
    backprop_gate(dgate, kF, wf_, uf_, false);
    // Cell candidate: dG = dc_new * i.
    Hadamard(dc_new, ig, &dgate);
    backprop_gate(dgate, kG, wg_, ug_, false);

    std::swap(dh, dh_prev);
    std::swap(dc, dc_prev);
  }
}

ParameterList LstmLayer::Parameters() {
  return {&wi_, &wf_, &wo_, &wg_, &ui_, &uf_, &uo_, &ug_,
          &bi_, &bf_, &bo_, &bg_};
}

ConstParameterList LstmLayer::Parameters() const {
  return {&wi_, &wf_, &wo_, &wg_, &ui_, &uf_, &uo_, &ug_,
          &bi_, &bf_, &bo_, &bg_};
}

}  // namespace pathrank::nn
