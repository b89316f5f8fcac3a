#include "circuit/gate.hh"

#include <iterator>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace qpad::circuit
{

namespace
{

struct KindInfo
{
    GateKind kind;
    const char *name;
    int num_qubits; // -1 == variable
    int num_params;
};

/** Indexed by GateKind; the static_assert below pins the order. */
constexpr KindInfo kKindInfo[] = {
    {GateKind::I,       "id", 1, 0},
    {GateKind::X,       "x", 1, 0},
    {GateKind::Y,       "y", 1, 0},
    {GateKind::Z,       "z", 1, 0},
    {GateKind::H,       "h", 1, 0},
    {GateKind::S,       "s", 1, 0},
    {GateKind::Sdg,     "sdg", 1, 0},
    {GateKind::T,       "t", 1, 0},
    {GateKind::Tdg,     "tdg", 1, 0},
    {GateKind::SX,      "sx", 1, 0},
    {GateKind::SXdg,    "sxdg", 1, 0},
    {GateKind::RX,      "rx", 1, 1},
    {GateKind::RY,      "ry", 1, 1},
    {GateKind::RZ,      "rz", 1, 1},
    {GateKind::P,       "p", 1, 1},
    {GateKind::U1,      "u1", 1, 1},
    {GateKind::U2,      "u2", 1, 2},
    {GateKind::U3,      "u3", 1, 3},
    {GateKind::CX,      "cx", 2, 0},
    {GateKind::CZ,      "cz", 2, 0},
    {GateKind::CP,      "cp", 2, 1},
    {GateKind::CRZ,     "crz", 2, 1},
    {GateKind::SWAP,    "swap", 2, 0},
    {GateKind::RZZ,     "rzz", 2, 1},
    {GateKind::CCX,     "ccx", 3, 0},
    {GateKind::CSWAP,   "cswap", 3, 0},
    {GateKind::Measure, "measure", 1, 0},
    {GateKind::Reset,   "reset", 1, 0},
    {GateKind::Barrier, "barrier", -1, 0},
};

constexpr bool
kindInfoIsIndexed()
{
    for (std::size_t i = 0; i < std::size(kKindInfo); ++i)
        if (static_cast<std::size_t>(kKindInfo[i].kind) != i)
            return false;
    return std::size(kKindInfo) ==
           static_cast<std::size_t>(GateKind::Barrier) + 1;
}
static_assert(kindInfoIsIndexed(), "kKindInfo must follow GateKind");

const KindInfo &
info(GateKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    qpad_assert(index < std::size(kKindInfo), "unknown GateKind");
    return kKindInfo[index];
}

} // namespace

int
gateKindNumParams(GateKind kind)
{
    return info(kind).num_params;
}

int
gateKindNumQubits(GateKind kind)
{
    return info(kind).num_qubits;
}

const char *
gateKindName(GateKind kind)
{
    return info(kind).name;
}

bool
gateKindFromName(const std::string &name, GateKind &kind)
{
    static const std::unordered_map<std::string, GateKind> table = {
        {"id", GateKind::I}, {"x", GateKind::X}, {"y", GateKind::Y},
        {"z", GateKind::Z}, {"h", GateKind::H}, {"s", GateKind::S},
        {"sdg", GateKind::Sdg}, {"t", GateKind::T},
        {"tdg", GateKind::Tdg}, {"sx", GateKind::SX},
        {"sxdg", GateKind::SXdg}, {"rx", GateKind::RX},
        {"ry", GateKind::RY}, {"rz", GateKind::RZ},
        {"p", GateKind::P}, {"u1", GateKind::U1}, {"u2", GateKind::U2},
        {"u3", GateKind::U3}, {"u", GateKind::U3},
        {"cx", GateKind::CX}, {"CX", GateKind::CX},
        {"cnot", GateKind::CX}, {"cz", GateKind::CZ},
        {"cp", GateKind::CP}, {"cu1", GateKind::CP},
        {"crz", GateKind::CRZ}, {"swap", GateKind::SWAP},
        {"rzz", GateKind::RZZ}, {"ccx", GateKind::CCX},
        {"toffoli", GateKind::CCX}, {"cswap", GateKind::CSWAP},
        {"measure", GateKind::Measure}, {"reset", GateKind::Reset},
        {"barrier", GateKind::Barrier},
    };
    auto it = table.find(name);
    if (it == table.end())
        return false;
    kind = it->second;
    return true;
}

Gate::Gate(GateKind k, std::vector<Qubit> qs, std::vector<double> ps)
    : kind(k), qubits(std::move(qs)), params(std::move(ps))
{
    int nq = gateKindNumQubits(k);
    qpad_assert(nq < 0 || qubits.size() == static_cast<size_t>(nq),
                "gate ", gateKindName(k), " expects ", nq, " qubits, got ",
                qubits.size());
    qpad_assert(params.size() ==
                    static_cast<size_t>(gateKindNumParams(k)),
                "gate ", gateKindName(k), " expects ",
                gateKindNumParams(k), " params, got ", params.size());
}

std::string
Gate::str() const
{
    std::ostringstream oss;
    oss << gateKindName(kind);
    if (!params.empty()) {
        oss << "(";
        for (size_t i = 0; i < params.size(); ++i)
            oss << (i ? "," : "") << params[i];
        oss << ")";
    }
    for (size_t i = 0; i < qubits.size(); ++i)
        oss << (i ? ", q" : " q") << qubits[i];
    if (kind == GateKind::Measure)
        oss << " -> c" << clbit;
    return oss.str();
}

bool
Gate::operator==(const Gate &other) const
{
    return kind == other.kind && qubits == other.qubits &&
           params == other.params &&
           (kind != GateKind::Measure || clbit == other.clbit);
}

} // namespace qpad::circuit
