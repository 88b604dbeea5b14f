#include "core/taint.h"

#include <algorithm>

#include "obs/counters.h"

namespace phpsafe {

void Trace::push(SourceLocation loc, std::string description) {
    auto node = std::make_shared<Node>();
    node->step = TaintStep{std::move(loc), std::move(description)};
    node->depth = static_cast<uint32_t>(size()) + 1;
    node->parent = std::move(head_);
    head_ = std::move(node);
}

std::vector<TaintStep> Trace::steps() const {
    std::vector<TaintStep> out(size());
    size_t i = out.size();
    for (const Node* node = head_.get(); node; node = node->parent.get())
        out[--i] = node->step;
    return out;
}

TaintValue TaintValue::source(VulnSet kinds, InputVector vec, SourceLocation loc,
                              std::string what) {
    TaintValue v;
    v.active = kinds;
    v.vector = vec;
    v.user_input = vec == InputVector::kGet || vec == InputVector::kPost ||
                   vec == InputVector::kCookie || vec == InputVector::kRequest;
    v.trace.push(std::move(loc), "source: " + what);
    return v;
}

void TaintValue::merge(const TaintValue& other) {
    ++obs::tls().taint_propagations;
    // Decide which trace to keep before the taint sets are unioned: prefer
    // the trace that actually carries taint (it leads back to a source).
    if (trace.empty() || (other.active.any() && !active.any()))
        trace = other.trace;
    active |= other.active;
    latent |= other.latent;
    user_input = user_input || other.user_input;
    via_oop = via_oop || other.via_oop;
    if (vector == InputVector::kUnknown) vector = other.vector;
    if (object_class.empty()) object_class = other.object_class;
    for (const ParamFlow& pf : other.param_flows) add_param_flow(pf.param, pf.kinds);
}

void TaintValue::add_step(SourceLocation loc, std::string description) {
    if (trace.size() >= kMaxTraceSteps) return;
    trace.push(std::move(loc), std::move(description));
}

void TaintValue::apply_sanitizer(VulnSet kinds, SourceLocation loc,
                                 std::string_view fn) {
    const VulnSet removed = active & kinds;
    active -= kinds;
    latent |= removed;
    for (ParamFlow& pf : param_flows) pf.kinds -= kinds;
    param_flows.erase(std::remove_if(param_flows.begin(), param_flows.end(),
                                     [](const ParamFlow& pf) { return pf.kinds.empty(); }),
                      param_flows.end());
    if (removed.any() || depends_on_params()) {
        std::string step = "sanitized by ";
        step += fn;
        step += " (";
        step += to_string(kinds);
        step += ')';
        add_step(loc, std::move(step));
    }
}

void TaintValue::apply_revert(VulnSet kinds, SourceLocation loc,
                              std::string_view fn) {
    const VulnSet revived = latent & kinds;
    active |= revived;
    latent -= revived;
    // Parameter flows: a revert can undo a sanitizer applied before the call
    // boundary, so conservatively restore those kinds on all flows.
    for (ParamFlow& pf : param_flows) pf.kinds |= kinds;
    if (revived.any() || depends_on_params()) {
        std::string step = "sanitization reverted by ";
        step += fn;
        step += " (";
        step += to_string(kinds);
        step += ')';
        add_step(loc, std::move(step));
    }
}

void TaintValue::add_param_flow(int param, VulnSet kinds) {
    for (ParamFlow& pf : param_flows) {
        if (pf.param == param) {
            pf.kinds |= kinds;
            return;
        }
    }
    param_flows.push_back(ParamFlow{param, kinds});
}

}  // namespace phpsafe
